from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from adastream.kb import AdaptationSpace, RunRecord, StreamConfig, default_space

from conftest import check_of


# -- domain types ------------------------------------------------------


def test_default_space_matches_reference_settings():
    space = default_space()
    lr, hr = space.configs
    assert space.names == ("LR", "HR")
    assert (lr.frame_rate, lr.quality_score) == (30, 0.99)
    assert (hr.frame_rate, hr.quality_score) == (60, 0.20)


def test_space_rejects_duplicates_and_empty():
    check_of(AdaptationSpace)


def test_run_record_enforces_accounting_identity():
    check_of(RunRecord)


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
    configs = tuple(StreamConfig(n, r, 0.5) for n, r in zip(names, rates))
    space = AdaptationSpace.of(configs=configs)
    for _ in range(2):  # the second pass reads the cached values
        assert space.highest_rate_config is max(configs, key=lambda c: c.frame_rate)
        assert space.lowest_rate_config is min(configs, key=lambda c: c.frame_rate)
        assert space.highest_rate_config.frame_rate == max(rates)
        for name in "ABCDEF":
            assert (name in space.names) == any(c.name == name for c in configs)
