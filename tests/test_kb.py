from __future__ import annotations

from adastream.kb import AdaptationSpace, RunRecord, default_space

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
