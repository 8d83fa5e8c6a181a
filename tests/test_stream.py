from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adastream.stream import StreamState
from adastream.units import to_us

from reference_loop import PendingModel

LR, HR = "LR", "HR"

# Per-switch delay that makes one switch per 30 s run cost 9% of the run:
# solves 1 - x/30 = 0.91.
DELAY_US = 2_700_000


def test_finalize_rejects_clock_mismatch():
    # the pending model closes each window on its own clock; this closes one on another
    state = StreamState(LR, DELAY_US)
    state.step(to_us(29))
    with pytest.raises(ValueError, match="run 7: time accounting broken"):
        state.finalize_run(7, to_us(30))


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
