"""Acceptance suite: one test per release criterion, each printing a pass/fail line, and two
spec tests: spec_check's named documents and the spec corpus's two files of recorded draws, on
the default space or their own, match the executable spec in reference_loop.py and keep the loop
invariants of criteria 6 and 7. Tolerances are fixed here and nowhere else."""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from adastream.experiment import run_experiment
from adastream.kb import default_space
from adastream.metrics import (
    PERFORMANCE_PRESETS,
    QUALITY_PRESETS,
    _quality_at,
    aggregate,
    config_quality_score,
    quality_scores,
    selection_fractions,
    system_performance,
    time_performance,
)
from adastream.kb import RunRecord
from adastream.scenario import load_scenario, parse_scenario
from adastream.units import to_us

from conftest import fold_of, run_dropping_events, run_with_events
import spec_corpus
from reference_loop import qp, scores as spec_scores
from spec_check import bundled_config_path, check_documents, named_documents

SPACE = default_space()
LR, HR = SPACE.configs

# Reference evaluation grid the static scenarios must reproduce (+-0.01).
# The 5r5q LR quality cell is 0.745 in this model, covering both printed
# roundings (0.74 and 0.75).
STATIC_EXPECTED = {
    "static-LR": {
        "qp": {"5r5q": 0.745, "9r1q": 0.55, "1r9q": 0.94},
        "p1": {"5r5q": 0.87, "9r1q": 0.78, "1r9q": 0.97},
        "p2": {"5r5q": 0.97, "9r1q": 0.96, "1r9q": 0.99},
        "p3": {"5r5q": 0.77, "9r1q": 0.60, "1r9q": 0.95},
    },
    "static-HR": {
        "qp": {"5r5q": 0.60, "9r1q": 0.92, "1r9q": 0.28},
        "p1": {"5r5q": 0.80, "9r1q": 0.96, "1r9q": 0.64},
        "p2": {"5r5q": 0.96, "9r1q": 0.99, "1r9q": 0.93},
        "p3": {"5r5q": 0.64, "9r1q": 0.93, "1r9q": 0.35},
    },
}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} [FAIL] {label}")
        raise
    print(f"criterion {number} [PASS] {label}")


@pytest.fixture(scope="module")
def bundled_outputs(tmp_path_factory):
    """Each bundled scenario run once: (report grid, elapsed seconds, out dir)."""
    root = tmp_path_factory.mktemp("bundled")
    outputs = {}
    for name in ("table3-static-lr", "table3-static-hr", "table3-adaptive"):
        config = load_scenario(bundled_config_path(name))
        out = root / name
        started = time.perf_counter()
        grid = run_experiment(config, out)
        elapsed = time.perf_counter() - started
        outputs[config.scenario] = (grid, elapsed, out)
    return outputs


def test_criterion_1_static_metric_reconstruction(bundled_outputs):
    with criterion(1, "static scenarios reproduce the reference grid within 0.01"):
        for scenario, expected in STATIC_EXPECTED.items():
            grid, elapsed, out = bundled_outputs[scenario]
            assert len((out / "runs.csv").read_text().splitlines()) == 1 + 100  # header, then a row a run
            assert elapsed < 5.0, f"{scenario} took {elapsed:.2f}s"
            assert set(grid["tp"].values()) == {1.0}, f"{scenario} tp {grid['tp']}"
            for metric, row in expected.items():
                for preset, value in row.items():
                    got = grid[metric][preset]
                    assert abs(got - value) <= 0.01, (
                        f"{scenario} {metric}/{preset}: {got:.4f} vs {value}"
                    )


def test_criterion_2_adaptive_time_performance(bundled_outputs):
    with criterion(2, "adaptive mean tp in [0.88, 0.94]"):
        config = load_scenario(bundled_config_path("table3-adaptive"))
        assert config.reconfig_delay_us == to_us(2.7)
        grid, _, _ = bundled_outputs["adaptive"]
        tp_mean = grid["tp"]["5r5q"]
        assert 0.88 <= tp_mean <= 0.94, f"tp_mean {tp_mean:.4f}"


def test_criterion_3_adaptive_selection_rate(bundled_outputs):
    with criterion(3, "low-rate config dominates 26%-36% of adaptive runs"):
        config = load_scenario(bundled_config_path("table3-adaptive"))
        records = run_dropping_events(config)
        run_fraction, _ = selection_fractions(fold_of(records, config.space))["LR"]
        assert 0.26 <= run_fraction <= 0.36, f"LR run fraction {run_fraction:.3f}"


def test_criterion_4_mixture_bound_over_seeds():
    with criterion(4, "adaptive qp between the static bounds for 20 seeds x 3 presets"):
        base = load_scenario(bundled_config_path("table3-adaptive"))
        space = base.space
        for offset in range(20):
            records = run_dropping_events(base._replace(seed=1000 + offset))
            grid = aggregate(fold_of(records, space))
            for preset, score in spec_scores(space.configs).items():
                lo, hi = min(score.values()), max(score.values())
                mean = grid["qp"][preset]
                assert lo - 1e-9 <= mean <= hi + 1e-9, (
                    f"seed {1000 + offset} {preset}: qp {mean:.4f} outside [{lo:.4f}, {hi:.4f}]"
                )
                for record in records:
                    assert lo - 1e-9 <= qp(record, score) <= hi + 1e-9


def test_criterion_5_formula_unit_suite():
    with criterion(5, "formula fixtures exact to 1e-9"):
        def rec(duration_s, reconfig_s, streamed):
            return RunRecord.of(
                run_index=0, duration_us=to_us(duration_s),
                reconfig_us=to_us(reconfig_s), switches=0,
                streamed_us={k: to_us(v) for k, v in streamed.items()},
            )

        q = QUALITY_PRESETS
        scores = quality_scores(SPACE)
        p = PERFORMANCE_PRESETS
        fixtures = [
            # time performance: (1 - reconfig/duration)
            (time_performance(rec(30, 0, {"LR": 30})), 1.0),
            (time_performance(rec(30, 2.7, {"HR": 27.3})), 0.91),
            (time_performance(rec(30, 30, {})), 0.0),
            # per-config quality scores
            (config_quality_score(HR, SPACE, q["5r5q"]), 0.5 * 1.0 + 0.5 * 0.20),   # 0.60
            (config_quality_score(LR, SPACE, q["9r1q"]), 0.9 * 0.5 + 0.1 * 0.99),   # 0.549
            (config_quality_score(HR, SPACE, q["9r1q"]), 0.9 * 1.0 + 0.1 * 0.20),   # 0.92
            (config_quality_score(LR, SPACE, q["1r9q"]), 0.1 * 0.5 + 0.9 * 0.99),   # 0.941
            # run quality performance
            (_quality_at(rec(30, 0, {"HR": 30}), scores["1r9q"]), 0.28),
            (_quality_at(rec(30, 0, {"LR": 30}), scores["1r9q"]), 0.941),
            (_quality_at(rec(30, 2.7, {"HR": 27.3}), scores["1r9q"]), 0.28),  # over the streamed seconds only
            # 31%/69% streamed mix under equal weights: convex combination
            (
                _quality_at(rec(30, 0, {"LR": 9.3, "HR": 20.7}), scores["5r5q"]),
                0.31 * 0.745 + 0.69 * 0.60,  # 0.64495
            ),
            # combined system performance
            (system_performance(1.0, 0.74, p["p1"]), 0.87),
            (system_performance(0.91, 0.78, p["p2"]), 0.9 * 0.91 + 0.1 * 0.78),  # 0.897
            (system_performance(0.73, 0.73, p["p3"]), 0.73),  # convexity fixed point
        ]
        assert len(fixtures) >= 10
        for i, (got, expected) in enumerate(fixtures):
            assert abs(got - expected) <= 1e-9, f"fixture {i}: {got!r} vs {expected!r}"


def test_every_accepted_bounded_document_runs_and_keeps_the_loop_invariants():
    # the outer criterion's line prints last
    with (
        criterion(7, "loop invariants hold on every accepted bounded document"),
        criterion(6, "closed-form qp equals event-log accumulation on every run that streamed"),
    ):
        check_documents([*named_documents().items(), *spec_corpus.read("bounded")])


def test_every_accepted_document_with_its_own_space_matches_the_spec():
    check_documents(spec_corpus.read("own_space"))


def test_criterion_8_byte_identical_replays(tmp_path, bundled_outputs):
    with criterion(8, "same config and seed produce byte-identical artifacts"):
        for name, scenario in (
            ("table3-adaptive", "adaptive"),
            ("table3-static-lr", "static-LR"),
        ):
            config = load_scenario(bundled_config_path(name))
            replay_dir = tmp_path / name
            run_experiment(config, replay_dir)
            _, _, first_dir = bundled_outputs[scenario]
            for artifact in ("runs.csv", "events.jsonl"):
                assert (replay_dir / artifact).read_bytes() == (first_dir / artifact).read_bytes(), (
                    f"{name}/{artifact} differs between replays"
                )


def test_criterion_9_fault_tolerant_streaming():
    with criterion(9, "registry outage over 30% of the timeline never halts the stream"):
        base = load_scenario(bundled_config_path("table3-adaptive"))
        doc = {
            "schema_version": 1,
            "scenario": "adaptive",
            "runs": 10,
            "run_duration_s": 30.0,
            "reconfig_delay_s": 2.7,
            "trace": {
                "mean_mbps": base.trace.mean_mbps,
                "amplitude_mbps": base.trace.amplitude_mbps,
                "period_s": base.trace.period_s,
                "noise_sd_mbps": base.trace.noise_sd_mbps,
                "step_s": base.trace.step_us / 1e6,
            },
            "probe_noise_sd_mbps": base.probe_noise_sd_mbps,
            "warmup": {"duration_s": 10800.0, "start_s": 27.0, "end_s": 65.0},
            "faults": [{"start_s": 90.0, "end_s": 180.0, "kind": "registry-unavailable"}],
            "seed": base.seed,
        }
        config, diags = parse_scenario(doc)
        assert config is not None, diags
        window_us = (to_us(90.0), to_us(180.0))
        assert (window_us[1] - window_us[0]) * 10 == config.total_duration_us * 3  # 30%

        records, events = run_with_events(config)
        # 100% of elapsed time is streamed-or-reconfiguring, every run
        for record in records:
            assert sum(record.streamed_us.values()) + record.reconfig_us == record.duration_us

        in_window = [e for e in events if window_us[0] <= e["t_us"] < window_us[1]]
        executes = [e for e in in_window if e["event"] == "execute"]
        assert executes
        # only last-known strategies during the outage: fallback source, no new applies
        assert all(e["source"] == "fallback" and not e["applied"] for e in executes)
        assert all(not e["ok"] for e in in_window if e["event"] == "register")
        # the stream kept an active config through every step of the outage
        assert all(e["active"] in config.space.names for e in in_window if e["event"] == "step")
        # sanity: the loop did adapt outside the outage
        assert any(
            e["event"] == "execute" and e["applied"] for e in events
        )
