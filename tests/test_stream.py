from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adastream.stream import StreamState
from adastream.units import to_us

LR, HR = "LR", "HR"

# Per-switch delay that makes one switch per 30 s run cost 9% of the run:
# solves 1 - x/30 = 0.91.
DELAY_US = 2_700_000


def test_apply_same_config_is_free():
    state = StreamState(LR, DELAY_US)
    state.apply_config(LR)
    assert state.active == state.target == "LR" and state.switches == 0
    assert state.reconfig_remaining_us == 0
    state.step(to_us(1))
    assert state.reconfig_us == 0


def test_reapply_pending_does_not_extend_delay():
    state = StreamState(LR, DELAY_US)
    state.apply_config(HR)
    state.step(to_us(1))
    assert state.reconfig_remaining_us == 1_700_000
    state.apply_config(HR)
    assert state.reconfig_remaining_us == 1_700_000
    assert (state.active, state.target) == ("LR", "HR")


def test_replace_pending_mid_flight_keeps_deadline():
    state = StreamState(LR, DELAY_US)
    state.apply_config(HR)
    state.step(to_us(1))
    state.apply_config(LR)  # reverse course: still in flight, though target == active
    assert state.target == "LR"
    assert state.reconfig_remaining_us == 1_700_000
    state.step(to_us(2))
    # reconfiguration completed on the original deadline, landing on LR
    assert state.active == state.target == "LR" and state.reconfig_remaining_us == 0
    assert state.switches == 0  # no net config change
    assert state.reconfig_us == 2_700_000


def test_step_entirely_inside_reconfiguration():
    state = StreamState(LR, to_us(5))
    state.apply_config(HR)
    out = state.step(to_us(1))
    assert state.reconfig_remaining_us == to_us(4)
    assert out == (1_000_000, 0, "LR")
    assert state.streamed_us == {}


def test_zero_delay_switch_is_instant():
    # a zero delay takes the general switch path and completes in the tick's own step
    state = StreamState(LR, 0)
    state.apply_config(HR)
    assert (state.active, state.target, state.reconfig_remaining_us) == ("LR", "HR", 0)
    outcome = state.step(to_us(1))
    assert state.active == state.target == "HR"
    assert state.switches == 1
    assert state.reconfig_us == 0
    assert outcome == (0, to_us(1), "HR")


def test_finalize_rejects_clock_mismatch():
    # the pending model closes each window on its own clock; this closes one on another
    state = StreamState(LR, DELAY_US)
    state.step(to_us(29))
    with pytest.raises(ValueError, match="run 7: time accounting broken"):
        state.finalize_run(7, to_us(30))


class PendingModel:
    """The stream as a `pending` config, None when no switch is in flight:
    a second, independently written model of the switch rules."""

    def __init__(self, initial: str, delay_us: int):
        self.delay_us = delay_us
        self.active = initial
        self.pending: str | None = None
        self.remaining_us = 0
        self.streamed_us: dict[str, int] = {}
        self.reconfig_us = 0
        self.switches = 0

    def committed(self) -> str:
        return self.active if self.pending is None else self.pending

    def apply(self, name: str) -> None:
        if self.pending is not None:
            self.pending = name
        elif name != self.active:
            self.pending = name
            self.remaining_us = self.delay_us

    def step(self, dt_us: int) -> tuple[int, int, str]:
        used = 0
        if self.pending is not None:
            used = min(self.remaining_us, dt_us)
            self.remaining_us -= used
            self.reconfig_us += used
            if self.remaining_us == 0:
                if self.pending != self.active:
                    self.switches += 1
                self.active, self.pending = self.pending, None
        streamed = dt_us - used
        if streamed:
            self.streamed_us[self.active] = self.streamed_us.get(self.active, 0) + streamed
        return used, streamed, self.active

    def finalize(self, run_index: int, duration_us: int) -> tuple:
        record = (run_index, duration_us, self.reconfig_us, self.switches, self.streamed_us)
        self.streamed_us, self.reconfig_us, self.switches = {}, 0, 0
        return record


# A step's dt is k whole delays plus an offset, at least 1 us: offsets of -1,
# 0 and 1 land steps just before, on and just after a switch's deadline.
_STEP = st.tuples(
    st.just("step"), st.integers(0, 3), st.one_of(st.integers(-1, 1), st.integers(-1, 3_000_000))
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), st.sampled_from((LR, HR, "MR"))),
        _STEP,
        st.just(("finalize",)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(delay_us=st.sampled_from((0, 1, DELAY_US)), ops=_OPS)
# two applies with no step between them, then a step across the deadline
@example(delay_us=DELAY_US, ops=[("apply", HR), ("apply", LR), ("step", 1, 1), ("apply", HR), ("step", 1, 0)])
@example(delay_us=0, ops=[("apply", HR), ("apply", LR), ("step", 0, 5), ("apply", HR), ("apply", "MR"), ("step", 0, 1)])
# a switch-back mid-flight, a re-target to a third config, and a run edge inside the switch
@example(
    delay_us=DELAY_US,
    ops=[("apply", HR), ("step", 0, 9), ("apply", LR), ("finalize",), ("apply", "MR"), ("step", 1, -1),
         ("step", 0, 1), ("apply", LR), ("apply", LR), ("step", 2, 0), ("finalize",)],
)
@example(delay_us=1, ops=[("apply", HR), ("step", 0, 1), ("apply", LR), ("apply", HR), ("step", 0, 2), ("finalize",)])
# a re-apply of the config already in flight, then a step across its deadline
@example(delay_us=DELAY_US, ops=[("apply", HR), ("step", 0, 5), ("apply", HR), ("step", 1, 0)])
def test_stream_matches_the_pending_model(delay_us, ops):
    stream = StreamState(LR, delay_us)
    model = PendingModel(LR, delay_us)
    window_us = run_index = 0
    for op in ops:
        if op[0] == "apply":
            stream.apply_config(op[1])
            model.apply(op[1])
        elif op[0] == "step":
            dt_us = max(1, op[1] * delay_us + op[2])
            assert stream.step(dt_us) == model.step(dt_us), op
            window_us += dt_us
        elif window_us:
            assert stream.finalize_run(run_index, window_us) == model.finalize(run_index, window_us)
            window_us = 0
            run_index += 1
        assert (stream.target, stream.active) == (model.committed(), model.active), op
        assert (stream.streamed_us, stream.reconfig_us, stream.switches) == (
            model.streamed_us, model.reconfig_us, model.switches
        ), op
