"""Every benchmark pin, checked in-process by `check_pins` in tests/spec_check.py: each
default-seed workload's runs and comparisons produce the bytes pinned in perfbench/golden.json,
the one home of the bundled configs' pins (table3-sweep runs them at seed 42 and compares them).
The other workloads reach 1,000 runs (adaptive-long), other seeds (table3-sweep), and the fault,
fallback, override and hysteresis paths (fault-storm). This test only reads perfbench/.
"""

from __future__ import annotations

import pytest

from spec_check import check_pins, workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_default_seed_workload_matches_its_pins(name):
    assert check_pins([name]) > 0
