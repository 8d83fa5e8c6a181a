from __future__ import annotations

import math
import random
import sys
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adastream.errors import InvalidRunError
from adastream.kb import AdaptationSpace, RunRecord, StreamConfig, default_space
from adastream.metrics import (
    PERFORMANCE_PRESETS,
    QUALITY_PRESETS,
    PerformanceWeights,
    QualityWeights,
    aggregate,
    REPORT_METRICS,
    config_quality_score,
    fmean as mean,
    render_report_csv,
    render_report_text,
    round_half_up,
    selection_fractions,
    system_performance,
    time_performance,
)
from adastream.units import to_us

from conftest import quality_performance

SPACE = default_space()
LR, HR = SPACE.configs


def record(duration_s=30.0, reconfig_s=0.0, lr_s=None, hr_s=None, scenario="adaptive", run_index=0):
    duration = to_us(duration_s)
    reconfig = to_us(reconfig_s)
    streamed = {}
    if lr_s is not None:
        streamed["LR"] = to_us(lr_s)
    if hr_s is not None:
        streamed["HR"] = to_us(hr_s)
    if not streamed and duration > reconfig:
        streamed["LR"] = duration - reconfig
    return RunRecord(
        run_index=run_index, scenario=scenario, duration_us=duration,
        reconfig_us=reconfig, switches=0, streamed_us=streamed,
    )


# -- means ---------------------------------------------------------------

_LARGEST = sys.float_info.max
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals and their neighbours
    st.floats(min_value=1e307, max_value=_LARGEST),
    st.floats(min_value=-_LARGEST, max_value=-1e307),
    st.sampled_from([5e-324, -5e-324, _LARGEST, -_LARGEST, 0.0, -0.0, 0.1, -0.1]),
)


def _outcome(mean_of, values):
    try:
        return repr(mean_of(values))
    except OverflowError as exc:  # fsum's sum left the float range
        return f"OverflowError: {exc}"


@settings(max_examples=400)
@given(st.lists(_FLOATS, min_size=1, max_size=500))
def test_mean_is_exactly_the_standard_library_fmean(values):
    assert _outcome(mean, values) == _outcome(fmean, values)


# -- weights -------------------------------------------------------------


def test_weights_must_sum_to_one_and_be_non_negative():
    for weights in (*QUALITY_PRESETS.values(), *PERFORMANCE_PRESETS.values()):
        assert min(weights) >= 0 and math.isclose(sum(weights), 1.0)
    assert QUALITY_PRESETS["9r1q"] == QualityWeights(0.9, 0.1)
    assert PERFORMANCE_PRESETS["p2"] == PerformanceWeights(0.9, 0.1)
    assert PERFORMANCE_PRESETS["p3"] == PerformanceWeights(0.1, 0.9)


# -- time performance ------------------------------------------------------


def test_time_performance_reference_points():
    assert time_performance(record(30, 0)) == 1.0
    assert abs(time_performance(record(30, 2.7)) - 0.91) < 1e-9
    assert time_performance(record(30, 30, lr_s=0)) == 0.0


# -- per-config quality score ----------------------------------------------


def test_config_score_hr_equal_weights():
    # 0.5 * 60/60 + 0.5 * 0.20
    assert abs(config_quality_score(HR, SPACE, QUALITY_PRESETS["5r5q"]) - 0.60) < 1e-9


def test_config_score_lr_rate_heavy():
    # 0.9 * 30/60 + 0.1 * 0.99
    assert abs(config_quality_score(LR, SPACE, QUALITY_PRESETS["9r1q"]) - 0.549) < 1e-9


def test_config_score_pure_rate_fastest_config():
    assert config_quality_score(HR, SPACE, QualityWeights(1.0, 0.0)) == 1.0


# -- per-run quality performance --------------------------------------------


def test_quality_performance_pure_hr_quality_heavy():
    # 0.1 * 1.0 + 0.9 * 0.20
    r = record(30, 0, hr_s=30)
    assert abs(quality_performance(r, SPACE, QUALITY_PRESETS["1r9q"]) - 0.28) < 1e-9


def test_quality_performance_pure_lr_quality_heavy():
    # 0.1 * 0.5 + 0.9 * 0.99
    r = record(30, 0, lr_s=30)
    assert abs(quality_performance(r, SPACE, QUALITY_PRESETS["1r9q"]) - 0.941) < 1e-9


def test_quality_performance_mixed_run_is_convex_combination():
    # 31% LR / 69% HR of streamed time under equal weights:
    # 0.31 * 0.745 + 0.69 * 0.60 = 0.64495
    r = record(30, 0, lr_s=9.3, hr_s=20.7)
    qw = QUALITY_PRESETS["5r5q"]
    oracle = 0.31 * config_quality_score(LR, SPACE, qw) + 0.69 * config_quality_score(HR, SPACE, qw)
    assert abs(oracle - 0.64495) < 1e-12
    assert abs(quality_performance(r, SPACE, qw) - oracle) < 1e-9


def test_quality_performance_excludes_reconfig_seconds():
    # same streamed mix, extra reconfiguration: qp unchanged
    qw = QUALITY_PRESETS["5r5q"]
    base = quality_performance(record(30, 0, lr_s=15, hr_s=15), SPACE, qw)
    padded = quality_performance(record(32.7, 2.7, lr_s=15, hr_s=15), SPACE, qw)
    assert abs(base - padded) < 1e-12


def test_quality_performance_rejects_zero_streamed():
    # a run that streamed nothing has no qp, and the report refuses it
    r = record(30, 30, lr_s=0)
    with pytest.raises(InvalidRunError, match="^run 0 streamed nothing; quality performance undefined$"):
        aggregate([r], SPACE)


def test_quality_performance_per_second_oracle():
    rng = random.Random(2024)
    qw = QUALITY_PRESETS["5r5q"]
    scores = {c.name: config_quality_score(c, SPACE, qw) for c in SPACE.configs}
    for _ in range(50):
        lr_seconds = rng.randint(0, 40)
        hr_seconds = rng.randint(0 if lr_seconds else 1, 40)
        r = record(lr_seconds + hr_seconds + 2.5, 2.5, lr_s=lr_seconds, hr_s=hr_seconds)
        brute = 0.0
        for name, whole in (("LR", lr_seconds), ("HR", hr_seconds)):
            for _second in range(whole):
                brute += scores[name]
        brute /= lr_seconds + hr_seconds
        assert abs(quality_performance(r, SPACE, qw) - brute) < 1e-12


# -- combined system performance ---------------------------------------------


def test_system_performance_reference_points():
    assert abs(system_performance(1.0, 0.74, PERFORMANCE_PRESETS["p1"]) - 0.87) < 1e-9
    assert abs(system_performance(0.91, 0.78, PERFORMANCE_PRESETS["p2"]) - 0.897) < 1e-9


def test_system_performance_fixed_point():
    rng = random.Random(5)
    for _ in range(20):
        x = rng.random()
        w = rng.random()
        assert abs(system_performance(x, x, PerformanceWeights(w, 1 - w)) - x) < 1e-12


def test_system_performance_bounds_and_convexity():
    rng = random.Random(6)
    for _ in range(100):
        tp, qp, w = rng.random(), rng.random(), rng.random()
        p = system_performance(tp, qp, PerformanceWeights(w, 1 - w))
        assert 0.0 <= p <= 1.0
        assert min(tp, qp) - 1e-12 <= p <= max(tp, qp) + 1e-12


def test_weight_monotonicity():
    tp, qp = 0.9, 0.4  # tp > qp: more time weight means more p
    values = [system_performance(tp, qp, PerformanceWeights(w, 1 - w)) for w in (0.1, 0.5, 0.9)]
    assert values[0] < values[1] < values[2]
    tp, qp = 0.3, 0.8  # tp < qp: more time weight means less p
    values = [system_performance(tp, qp, PerformanceWeights(w, 1 - w)) for w in (0.1, 0.5, 0.9)]
    assert values[0] > values[1] > values[2]


# -- aggregation ---------------------------------------------------------------


def test_aggregate_constant_runs_equals_single_run():
    records = [record(30, 0, hr_s=30, scenario="static-HR", run_index=i) for i in range(100)]
    report = aggregate(records, SPACE)
    assert report.run_count == 100
    assert list(report.grid["tp"].values()) == [1.0] * len(QUALITY_PRESETS)
    for preset, qw in QUALITY_PRESETS.items():
        single = quality_performance(records[0], SPACE, qw)
        assert abs(report.grid["qp"][preset] - single) < 1e-12


def test_aggregate_static_lr_row():
    records = [record(30, 0, lr_s=30, scenario="static-LR", run_index=i) for i in range(10)]
    report = aggregate(records, SPACE)
    assert abs(report.grid["qp"]["5r5q"] - 0.745) < 0.01
    assert abs(report.grid["qp"]["9r1q"] - 0.55) < 0.01
    assert abs(report.grid["qp"]["1r9q"] - 0.94) < 0.01


def test_aggregate_means_match_explicit_oracle():
    rng = random.Random(77)
    records = []
    for i in range(25):
        reconfig = rng.choice([0, 2.7, 5.4])
        lr = rng.randint(1, 20)
        hr = 30 - reconfig - lr
        records.append(record(30, reconfig, lr_s=lr, hr_s=hr, run_index=i))
    report = aggregate(records, SPACE)
    tp_mean = report.grid["tp"]["9r1q"]
    assert abs(tp_mean - fmean(time_performance(r) for r in records)) < 1e-12
    qw = QUALITY_PRESETS["9r1q"]
    qp_mean = report.grid["qp"]["9r1q"]
    assert abs(qp_mean - fmean(quality_performance(r, SPACE, qw) for r in records)) < 1e-12
    # p cells derive from the means, not from per-run p values
    expected_p2 = system_performance(tp_mean, qp_mean, PERFORMANCE_PRESETS["p2"])
    assert report.grid["p2"]["9r1q"] == expected_p2


def test_aggregate_all_cells_bounded():
    rng = random.Random(88)
    duration = to_us(30)
    records = []
    for i in range(40):
        reconfig = rng.randrange(0, to_us(10))
        lr = rng.randrange(0, duration - reconfig)
        hr = duration - reconfig - lr
        records.append(
            RunRecord(
                run_index=i, scenario="adaptive", duration_us=duration,
                reconfig_us=reconfig, switches=0, streamed_us={"LR": lr, "HR": hr},
            )
        )
    report = aggregate(records, SPACE)
    assert list(report.grid) == list(REPORT_METRICS)
    for row in report.grid.values():
        assert list(row) == list(QUALITY_PRESETS)
        assert all(0.0 <= value <= 1.0 for value in row.values())


def test_mixture_bound_for_any_mix():
    rng = random.Random(99)
    for qw in QUALITY_PRESETS.values():
        lo = min(config_quality_score(c, SPACE, qw) for c in SPACE.configs)
        hi = max(config_quality_score(c, SPACE, qw) for c in SPACE.configs)
        for _ in range(50):
            lr = rng.uniform(0, 29)
            r = record(30, 0, lr_s=lr, hr_s=30 - lr)
            qp = quality_performance(r, SPACE, qw)
            assert lo - 1e-12 <= qp <= hi + 1e-12


# -- selection + rendering -------------------------------------------------------


def test_dominant_config_and_fractions():
    records = [
        record(30, 0, lr_s=20, hr_s=10, run_index=0),
        record(30, 0, lr_s=5, hr_s=25, run_index=1),
        record(30, 0, lr_s=1, hr_s=29, run_index=2),
    ]
    assert selection_fractions(records[:1], SPACE.names)["LR"][0] == 1.0
    assert selection_fractions(records[1:2], SPACE.names)["HR"][0] == 1.0
    fractions = selection_fractions(records, SPACE.names)
    assert list(fractions) == list(SPACE.names)
    run_frac, sec_frac = fractions["LR"]
    assert run_frac == pytest.approx(1 / 3)
    assert sec_frac == pytest.approx(26 / 90)
    assert fractions["HR"] == (pytest.approx(2 / 3), pytest.approx(64 / 90))


def test_selection_ties_go_to_the_first_config_in_space_order():
    space = AdaptationSpace((
        StreamConfig("HR", 30, 1280, 720, 0.2),
        StreamConfig("MR", 20, 960, 540, 0.5),
        StreamConfig("LR", 5, 640, 360, 0.9),
    ))

    def run(run_index, reconfig_s=0, **seconds):
        return RunRecord(
            run_index=run_index, scenario="adaptive", duration_us=to_us(30),
            reconfig_us=to_us(reconfig_s), switches=0,
            streamed_us={name: to_us(s) for name, s in seconds.items()},
        )

    records = [
        run(0, MR=15, LR=15),
        run(1, HR=10, MR=10, LR=10),
        run(2, LR=15, HR=15),
        run(3, LR=20, MR=10),
        run(4, reconfig_s=30),  # streamed nothing: every config ties at 0
    ]

    def oracle(names, name):
        def dominant(r):
            best = names[0]
            for other in names[1:]:
                if r.streamed_us.get(other, 0) > r.streamed_us.get(best, 0):
                    best = other
            return best

        streamed_total = sum(r.streamed_total_us for r in records)
        return (
            sum(dominant(r) == name for r in records) / len(records),
            sum(r.streamed_us.get(name, 0) for r in records) / streamed_total,
        )

    for names in (space.names, space.names[::-1]):
        assert selection_fractions(records, names) == {name: oracle(names, name) for name in names}
    in_order = selection_fractions(records, space.names)
    assert [run_frac for run_frac, _ in in_order.values()] == [3 / 5, 1 / 5, 1 / 5]
    reversed_order = selection_fractions(records, space.names[::-1])
    assert {name: fracs[0] for name, fracs in reversed_order.items()} == {
        "LR": 1.0, "MR": 0.0, "HR": 0.0,
    }


def test_round_half_up_matches_display_rule():
    assert round_half_up(0.745) == 0.75
    assert round_half_up(0.5941) == 0.59
    assert round_half_up(0.775) == 0.78
    assert round_half_up(0.9118) == 0.91
    assert round_half_up(-0.005) == -0.01


def test_report_renders_fixed_grid():
    records = [record(30, 0, lr_s=30, scenario="static-LR", run_index=i) for i in range(3)]
    report = aggregate(records, SPACE)
    csv_text = render_report_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "metric,5r5q,9r1q,1r9q"
    assert len(lines) == 6  # header + tp/qp/p1/p2/p3
    assert all(len(line.split(",")) == 4 for line in lines)
    text = render_report_text(report)
    assert "static-LR" in text and "tp" in text
