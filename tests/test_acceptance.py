"""Acceptance suite: one test per release criterion, each printing a pass/fail line, and two
spec tests: conftest's named documents and the spec corpus's two files of recorded draws, on the
default space or their own, match the executable spec in reference_loop.py and keep the loop
invariants of criteria 6 and 7. Tolerances are fixed here and nowhere else."""

from __future__ import annotations

import gc
import re
import tempfile
import time
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

import pytest

from adastream.errors import SimulationError
from adastream.experiment import run_experiment, runs_csv_text
from adastream.kb import default_space
from adastream.mapek import Engine
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

from conftest import (
    bundled_config_path,
    fold_of,
    named_documents,
    parsed_runs,
    registered_strategies,
    run_dropping_events,
    run_into_jsonl,
    run_with_events,
)
import spec_corpus
from reference_loop import Refused, qp, reference_artifacts, scores as spec_scores

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


def assert_loop_invariants(config, records, events) -> None:
    """Criteria 6 and 7: exact time accounting, each run's closed-form qp equal to the one its step
    lines accumulate, an append-only strategy history, register -> apply causality, and the loop's
    fail-safe and static rules."""
    # fail-safe: every run completed and accounts for all elapsed time
    assert len(records) == config.runs
    for record in records:
        assert sum(record.streamed_us.values()) + record.reconfig_us == record.duration_us

    # per-step accounting is exact too, each step lasts one monitor interval, and a
    # static-<c> scenario streams c throughout
    pinned = config.scenario.removeprefix("static-") if config.scenario != "adaptive" else None
    per_run_elapsed: dict[int, int] = {}
    per_run_streamed: dict[int, dict[str, int]] = {}
    for event in events:
        if event["event"] != "step":
            continue
        assert event["dt_us"] == config.monitor_interval_us
        assert pinned in (None, event["active"])
        streamed, segment_us = per_run_streamed.setdefault(event["run"], {}), 0
        for name, us in event["segments"]:
            streamed[name] = streamed.get(name, 0) + us
            segment_us += us
        assert event["reconfig_us"] + segment_us == event["dt_us"]
        per_run_elapsed[event["run"]] = per_run_elapsed.get(event["run"], 0) + event["dt_us"]
    assert per_run_elapsed == dict.fromkeys(range(config.runs), config.run_duration_us)

    # criterion 6: the step segments add up, config by config, to each run's streamed
    # time, and the closed-form qp equals the spec's qp of that streamed time
    scores = quality_scores(config.space)
    for record in records:
        assert per_run_streamed[record.run_index] == record.streamed_us
        if not record.streamed_us:  # a run that only reconfigured has no qp
            continue
        for score in scores.values():
            assert abs(_quality_at(record, score) - qp(record, score)) <= 1e-9

    # the registered history, read from the register lines: strictly increasing ids
    strategies = registered_strategies(events)
    ids = [s.id for s in strategies]
    assert all(a < b for a, b in zip(ids, ids[1:]))

    # consecutive strategies never repeat a target
    targets = [s.target for s in strategies]
    assert all(a != b for a, b in zip(targets, targets[1:]))

    # causality: each applied change maps 1:1 to an earlier registration
    registered = {
        e["strategy_id"]: e["seq"]
        for e in events
        if e["event"] == "register" and e["ok"]
    }
    seen: set[int] = set()
    for event in events:
        if event["event"] == "execute" and event["applied"]:
            sid = event["strategy_id"]
            assert sid in registered and registered[sid] < event["seq"]
            assert sid not in seen
            seen.add(sid)
    assert len(seen) == len(registered)  # every registered strategy got executed

    # what the message types take on trust: a healthy probe reads >= 0 Mbps, a faulted
    # one is analyzed unknown, and a strategy is a user override or follows the tick's
    # own threshold condition, in an adaptive scenario only
    healthy = condition = None
    for event in events:
        if event["event"] == "monitor":
            healthy = event["ok"]
            assert not healthy or event["upload_mbps"] >= 0
        elif event["event"] == "analyze":
            condition = event["condition"]
            assert healthy or condition == "unknown"
        elif event["event"] == "plan" and event["action"] == "strategy":
            assert pinned is None
            assert event["reason"] in ("below-threshold", "above-threshold", "user-config")
            assert event["reason"] in ("user-config", condition)


def assert_same_text(name: str, got: str, expected: str) -> None:
    """Byte equality, reported at the first line that differs."""
    if got != expected:
        pairs = zip_longest(got.splitlines(keepends=True), expected.splitlines(keepends=True))
        at, (wrote, spec) = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
        raise AssertionError(f"{name} line {at + 1}: run_experiment wrote {wrote!r}, the reference {spec!r}")


def check_document(document) -> None:
    """What validate accepts, run finishes: its four artifacts are byte for byte
    the executable spec's, its runs.csv reads back, and its events keep the
    invariants of criteria 6 and 7. Where the experiment is refused after its
    loop ran to the end, the engine's events are the spec's, byte for byte."""
    config, _ = parse_scenario(document)
    if config is None:
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            expected, events = reference_artifacts(config)
        except Refused as refusal:
            # a zero threshold, or a run that only reconfigured: one error, no artifact
            with pytest.raises(SimulationError, match=re.escape(str(refusal))):
                run_experiment(config, out)
            assert not any(Path(out).iterdir())
            if refusal.events is not None:
                # the loop itself ran to the end: its events and records are the spec's,
                # and keep the invariants
                records, text = run_into_jsonl(Engine(config))
                assert_same_text("events.jsonl", text, refusal.events_text)
                assert list(records) == refusal.records
                assert_loop_invariants(config, records, refusal.events)
            return
        run_experiment(config, out)
        for name, text in expected.items():
            assert_same_text(name, (Path(out) / name).read_bytes().decode("utf-8"), text)
        scenario, names, records = parsed_runs(Path(out) / "runs.csv")
    # runs.csv reads back to the config's scenario and names, and its rows render again to the file
    rows = "".join(runs_csv_text(record, scenario, names) for record in records)
    assert (scenario, names, rows) == (config.scenario, config.space.names, expected["runs.csv"].partition("\n")[2])
    assert_loop_invariants(config, records, events)


def check_documents(documents) -> None:
    """`check_document` on each (where, document): a failure names the document's `where`.

    The cyclic collector is off meanwhile: reference counting frees the spec's and the
    engine's event dicts, and each collection would walk every live one."""
    gc.disable()
    try:
        for where, document in documents:
            try:
                check_document(document)
            except BaseException as failure:
                failure.add_note(f"document {where}")
                raise
    finally:
        gc.enable()


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
