from __future__ import annotations

import pytest

from adastream.stream import StreamState
from adastream.units import to_us

import spec_corpus
from spec_corpus import DELAY_US
from spec_check import STREAM_CASES, check_recorded, check_stream_ops


def test_finalize_rejects_clock_mismatch():
    # the pending model closes each window on its own clock; this closes one on another
    state = StreamState("LR", DELAY_US)
    state.step(to_us(29))
    with pytest.raises(ValueError, match="run 7: time accounting broken"):
        state.finalize_run(7, to_us(30))


def test_stream_matches_the_pending_model():
    # five named cases, then 200 recorded op sequences on delays of 0, 1 and DELAY_US
    check_recorded(check_stream_ops, [*STREAM_CASES.items(), *spec_corpus.read("stream_ops")])
