"""Golden digests: the zero-delay config at seed 42 produces the bytes pinned in
`ZERO_DELAY_SHA256` in tests/spec_check.py, its only pin, since no benchmark workload runs it.
Any change to a writer, the event encoder or the loop that moves a single byte fails here.
Re-pin only on purpose.
"""

from __future__ import annotations

from spec_check import check_pins


def test_zero_delay_switches_match_golden_digests():
    assert check_pins(["zero-delay"]) == 4
