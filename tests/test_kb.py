from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adastream.errors import InvalidRunError
from adastream.kb import (
    AdaptationSpace,
    AdaptationStrategy,
    KnowledgeBase,
    RunRecord,
    StreamConfig,
    default_space,
)


def strategy(sid, target="LR", at_us=0, reason="below-threshold"):
    return AdaptationStrategy(id=sid, issued_at_us=at_us, target=target, reason=reason)


def record(run_index=0, duration_us=30_000_000, reconfig_us=0, streamed=None, scenario="adaptive"):
    if streamed is None:
        streamed = {"LR": duration_us - reconfig_us}
    return RunRecord(
        run_index=run_index,
        scenario=scenario,
        duration_us=duration_us,
        reconfig_us=reconfig_us,
        switches=0,
        streamed_us=streamed,
    )


# -- domain types ------------------------------------------------------


def test_default_space_matches_reference_settings():
    space = default_space()
    lr, hr = space.configs
    assert space.names == ("LR", "HR")
    assert (lr.frame_rate, lr.scale_w, lr.scale_h) == (30, 320, 240)
    assert (hr.frame_rate, hr.scale_w, hr.scale_h) == (60, 720, 480)
    assert space.highest_rate_config.frame_rate == 60


def test_space_rejects_duplicates_and_empty():
    lr = StreamConfig("LR", 30, 320, 240, 0.99)
    with pytest.raises(ValueError):
        AdaptationSpace(configs=())
    with pytest.raises(ValueError):
        AdaptationSpace(configs=(lr, lr))


def test_space_max_frame_rate_is_recomputed():
    space = AdaptationSpace(
        configs=(
            StreamConfig("A", 10, 100, 100, 0.5),
            StreamConfig("B", 25, 100, 100, 0.5),
        )
    )
    assert space.highest_rate_config.frame_rate == 25
    assert "A" in space and "C" not in space


@given(
    st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True).flatmap(
        lambda names: st.tuples(
            st.just(names), st.lists(st.integers(1, 3), min_size=len(names), max_size=len(names))
        )
    )
)
def test_space_cached_lookups_match_scans(names_and_rates):
    # rates drawn from 1..3 force frame-rate ties, which go to the first config
    names, rates = names_and_rates
    configs = tuple(StreamConfig(n, r, 100, 100, 0.5) for n, r in zip(names, rates))
    space = AdaptationSpace(configs=configs)
    for _ in range(2):  # the second pass reads the cached values
        assert space.highest_rate_config is max(configs, key=lambda c: c.frame_rate)
        assert space.lowest_rate_config is min(configs, key=lambda c: c.frame_rate)
        assert space.highest_rate_config.frame_rate == max(rates)
        for name in "ABCDEF":
            assert (name in space) == any(c.name == name for c in configs)


def test_run_record_enforces_accounting_identity():
    with pytest.raises(InvalidRunError):
        record(duration_us=0)
    with pytest.raises(InvalidRunError):
        record(duration_us=10, reconfig_us=20)
    with pytest.raises(InvalidRunError):
        RunRecord(
            run_index=0, scenario="adaptive", duration_us=100, reconfig_us=10,
            switches=1, streamed_us={"LR": 80},  # 80 + 10 != 100
        )


# -- registry operations -----------------------------------------------


def test_register_into_empty_kb():
    kb = KnowledgeBase()
    kb.register_strategy(strategy(1))
    assert len(kb.strategies) == 1
    assert kb.strategies[0].id == 1


def test_register_appends_in_order():
    kb = KnowledgeBase()
    kb.register_strategy(strategy(1))
    kb.register_strategy(strategy(2, target="HR", reason="above-threshold"))
    before = kb.strategies
    kb.register_strategy(strategy(3))
    assert [s.id for s in kb.strategies] == [1, 2, 3]
    # prior entries untouched by the append
    assert kb.strategies[:2] == before


def test_latest_strategy_empty_is_none():
    assert KnowledgeBase().latest_strategy() is None


def test_latest_strategy_returns_max_id():
    kb = KnowledgeBase()
    for sid in (1, 2, 3):
        kb.register_strategy(strategy(sid))
    assert kb.latest_strategy().id == 3


def test_latest_strategy_single_entry():
    kb = KnowledgeBase()
    kb.register_strategy(strategy(7, target="HR", reason="above-threshold"))
    latest = kb.latest_strategy()
    assert latest.id == 7 and latest.target == "HR"


def test_latest_wins_after_every_register():
    kb = KnowledgeBase()
    for sid in range(1, 20):
        s = strategy(sid, target="LR" if sid % 2 else "HR",
                     reason="below-threshold" if sid % 2 else "above-threshold")
        kb.register_strategy(s)
        # fetch after register always observes the complete, just-written value
        assert kb.latest_strategy() == s


def test_append_only_never_mutates_existing():
    kb = KnowledgeBase()
    for sid in range(1, 6):
        kb.register_strategy(strategy(sid))
    snapshot = kb.strategies
    kb.register_strategy(strategy(6))
    assert kb.strategies[:5] == snapshot

