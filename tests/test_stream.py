from __future__ import annotations

import random

import pytest

from adastream.errors import InvalidRunError
from adastream.stream import StreamState
from adastream.units import to_us

LR, HR = "LR", "HR"

# Per-switch delay that makes one switch per 30 s run cost 9% of the run:
# solves 1 - x/30 = 0.91.
DELAY_S = (1 - 0.91) * 30
DELAY_US = to_us(DELAY_S)
RUN_US = to_us(30)


def test_delay_derivation():
    assert DELAY_US == 2_700_000


def test_apply_same_config_is_free():
    state = StreamState(LR)
    state.apply_config(LR, DELAY_US)
    assert state.active == "LR" and state.switches == 0
    assert state.pending is None
    assert state.reconfig_remaining_us == 0
    state.step(to_us(1))
    assert state.reconfig_us == 0


def test_apply_new_config_opens_reconfiguration():
    state = StreamState(LR)
    state.apply_config(HR, DELAY_US)
    assert state.pending == "HR"
    assert state.reconfig_remaining_us == 2_700_000
    assert state.active == "LR"


def test_reapply_pending_does_not_extend_delay():
    state = StreamState(LR)
    state.apply_config(HR, DELAY_US)
    state.step(to_us(1))
    assert state.reconfig_remaining_us == 1_700_000
    state.apply_config(HR, DELAY_US)
    assert state.reconfig_remaining_us == 1_700_000
    assert state.pending == "HR"


def test_replace_pending_mid_flight_keeps_deadline():
    state = StreamState(LR)
    state.apply_config(HR, DELAY_US)
    state.step(to_us(1))
    state.apply_config(LR, DELAY_US)  # reverse course
    assert state.pending == "LR"
    assert state.reconfig_remaining_us == 1_700_000
    state.step(to_us(2))
    # reconfiguration completed on the original deadline, landing on LR
    assert state.active == "LR" and state.pending is None
    assert state.switches == 0  # no net config change
    assert state.reconfig_us == 2_700_000


def test_step_streams_at_active_config():
    state = StreamState(LR)
    out = state.step(to_us(1))
    assert state.streamed_us == {"LR": 1_000_000}
    assert out == (0, 1_000_000, "LR")


def test_step_splits_across_switch_completion():
    state = StreamState(LR)
    state.apply_config(HR, DELAY_US)
    out = state.step(to_us(3))
    # 2.7 s reconfiguring, then 0.3 s streamed at the new config
    assert out == (2_700_000, 300_000, "HR")
    assert state.active == "HR" and state.pending is None
    assert state.switches == 1


def test_step_entirely_inside_reconfiguration():
    state = StreamState(LR)
    state.apply_config(HR, to_us(5))
    out = state.step(to_us(1))
    assert state.reconfig_remaining_us == to_us(4)
    assert out == (1_000_000, 0, "LR")
    assert state.streamed_us == {}


def test_zero_delay_switch_is_instant():
    state = StreamState(LR)
    state.apply_config(HR, 0)
    assert state.active == "HR" and state.pending is None
    assert state.switches == 1
    assert state.reconfig_us == 0


def test_static_run_finalizes_with_full_streaming():
    state = StreamState(LR)
    for _ in range(30):
        state.step(to_us(1))
    record = state.finalize_run("static-LR", 0, RUN_US)
    assert record.reconfig_us == 0
    assert record.streamed_us == {"LR": RUN_US}
    assert record.switches == 0


def test_single_switch_run_accounting():
    state = StreamState(LR)
    state.step(to_us(10))
    state.apply_config(HR, DELAY_US)
    state.step(to_us(20))
    record = state.finalize_run("adaptive", 0, RUN_US)
    assert record.reconfig_us == 2_700_000
    assert record.streamed_total_us == RUN_US - 2_700_000  # 27.3 s
    assert record.streamed_us == {"LR": 10_000_000, "HR": 17_300_000}
    assert record.switches == 1


def test_run_ending_mid_reconfiguration_clips_open_interval():
    state = StreamState(LR)
    state.step(to_us(29))
    state.apply_config(HR, DELAY_US)
    state.step(to_us(1))
    record = state.finalize_run("adaptive", 0, RUN_US)
    assert record.reconfig_us == 1_000_000
    assert record.streamed_us == {"LR": 29_000_000}
    # the switch carries into the next run, which finalize_run opened
    assert state.step(to_us(2)) == (1_700_000, 300_000, "HR")
    assert state.reconfig_us == 1_700_000
    assert state.streamed_us == {"HR": 300_000}


def test_finalized_record_keeps_its_ledger_after_later_steps():
    state = StreamState(LR)
    state.step(RUN_US)
    record = state.finalize_run("static-LR", 0, RUN_US)
    state.step(to_us(5))
    state.apply_config(HR, 0)
    state.step(to_us(5))
    assert record.streamed_us == {"LR": RUN_US}
    assert (record.reconfig_us, record.switches) == (0, 0)
    assert (state.streamed_us, state.switches) == ({"LR": to_us(5), "HR": to_us(5)}, 1)


def test_switch_in_flight_at_run_boundaries_charges_each_run_its_own_part():
    # a 35 s delay that opens 1 s before the end of run 0 spans all of run 1
    state = StreamState(LR)
    state.step(to_us(29))
    state.apply_config(HR, to_us(35))
    state.step(to_us(1))
    records = [state.finalize_run("adaptive", 0, RUN_US)]
    state.step(RUN_US)
    records.append(state.finalize_run("adaptive", 1, RUN_US))
    state.step(RUN_US)
    records.append(state.finalize_run("adaptive", 2, RUN_US))
    assert [r.reconfig_us for r in records] == [to_us(1), RUN_US, to_us(4)]
    assert [r.streamed_us for r in records] == [{"LR": to_us(29)}, {}, {"HR": to_us(26)}]
    # the switch counts in the run where it completes
    assert [r.switches for r in records] == [0, 0, 1]


def test_finalize_rejects_clock_mismatch():
    state = StreamState(LR)
    state.step(to_us(29))
    with pytest.raises(InvalidRunError, match="run 7: time accounting broken"):
        state.finalize_run("adaptive", 7, RUN_US)


def test_time_conservation_over_random_interleavings():
    for seed in range(50):
        rng = random.Random(seed)
        state = StreamState(LR)
        switches_seen = 0
        reconfig_seen = 0
        elapsed = 0
        for _ in range(200):
            if rng.random() < 0.3:
                target = rng.choice((LR, HR))
                state.apply_config(target, to_us(rng.choice([0, 1.3, 2.7, 5.0])))
            else:
                dt = rng.randint(1, 3_000_000)
                state.step(dt)
                elapsed += dt
            assert sum(state.streamed_us.values()) + state.reconfig_us == elapsed
            assert state.switches >= switches_seen
            assert state.reconfig_us >= reconfig_seen
            switches_seen = state.switches
            reconfig_seen = state.reconfig_us


def test_static_scenario_always_tp_one():
    # no apply_config after start: reconfig stays zero for any step pattern
    for seed in range(10):
        rng = random.Random(seed)
        state = StreamState(HR)
        total = 0
        while total < RUN_US:
            dt = min(rng.randint(1, 2_000_000), RUN_US - total)
            state.step(dt)
            total += dt
        record = state.finalize_run("static-HR", 0, RUN_US)
        assert record.reconfig_us == 0
        assert record.streamed_us == {"HR": RUN_US}
