from __future__ import annotations

import random
from statistics import fmean

from adastream.kb import AdaptationSpace, RunRecord, StreamConfig, default_space
from adastream.metrics import (
    PERFORMANCE_PRESETS,
    RunFold,
    aggregate,
    selection_fractions,
    system_performance,
    time_performance,
)
from adastream.units import to_us

import spec_corpus
from conftest import fold_of
from reference_loop import qp, scores, selection as spec_selection
from spec_check import ROUNDING_CASES, check_mean, check_recorded, check_rounding

SPACE = default_space()


def record(duration_s=30.0, reconfig_s=0.0, lr_s=None, hr_s=None, run_index=0):
    duration = to_us(duration_s)
    reconfig = to_us(reconfig_s)
    streamed = {}
    if lr_s is not None:
        streamed["LR"] = to_us(lr_s)
    if hr_s is not None:
        streamed["HR"] = to_us(hr_s)
    if not streamed and duration > reconfig:
        streamed["LR"] = duration - reconfig
    return RunRecord.of(
        run_index=run_index, duration_us=duration,
        reconfig_us=reconfig, switches=0, streamed_us=streamed,
    )


# -- means ---------------------------------------------------------------


def test_mean_is_exactly_the_standard_library_fmean():
    # 120 recorded lists of floats in [0, 1], 63 of them 1,000 to 20,000 long
    check_recorded(check_mean, spec_corpus.read("fmean"))


# -- aggregation ---------------------------------------------------------------


def test_aggregate_means_match_explicit_oracle():
    rng = random.Random(77)
    records = []
    for i in range(25):
        reconfig = rng.choice([0, 2.7, 5.4])
        lr = rng.randint(1, 20)
        hr = 30 - reconfig - lr
        records.append(record(30, reconfig, lr_s=lr, hr_s=hr, run_index=i))
    grid = aggregate(fold_of(records, SPACE))
    tp_mean = grid["tp"]["9r1q"]
    assert abs(tp_mean - fmean(time_performance(r) for r in records)) < 1e-12
    qp_mean = grid["qp"]["9r1q"]
    score = scores(SPACE.configs)["9r1q"]
    assert abs(qp_mean - fmean(qp(r, score) for r in records)) < 1e-12
    # p cells derive from the means, not from per-run p values
    expected_p2 = system_performance(tp_mean, qp_mean, PERFORMANCE_PRESETS["p2"])
    assert grid["p2"]["9r1q"] == expected_p2


# -- selection + rounding --------------------------------------------------------


def test_selection_ties_go_to_the_first_config_in_space_order():
    space = AdaptationSpace.of((
        StreamConfig("HR", 30, 0.2),
        StreamConfig("MR", 20, 0.5),
        StreamConfig("LR", 5, 0.9),
    ))

    def run(run_index, reconfig_s=0, **seconds):
        return RunRecord.of(
            run_index=run_index, duration_us=to_us(30),
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

    def selection(names):
        # folded with no scores, as `compare` folds runs.csv: the run that streamed nothing has no qp
        fold = RunFold(names, {})
        for r in records:
            fold.add(r)
        return selection_fractions(fold)

    for names in (space.names, space.names[::-1]):
        assert selection(names) == spec_selection(names, records)
    in_order = selection(space.names)
    assert [run_frac for run_frac, _ in in_order.values()] == [3 / 5, 1 / 5, 1 / 5]
    reversed_order = selection(space.names[::-1])
    assert {name: fracs[0] for name, fracs in reversed_order.items()} == {
        "LR": 1.0, "MR": 0.0, "HR": 0.0,
    }


def test_round_half_up_matches_display_rule():
    # 13 named values and 100 recorded ones in [-1e25, 1e25]
    check_recorded(check_rounding, [*ROUNDING_CASES.items(), *spec_corpus.read("rounding")])
