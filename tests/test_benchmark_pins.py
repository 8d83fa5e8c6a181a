"""Every pin, checked in-process by `check_pins` in tests/spec_check.py, one id per default name.
Each default-seed benchmark workload must produce the bytes pinned in perfbench/golden.json, the
one home of the bundled configs' pins, and the zero-delay config, which no workload runs, those in
`ZERO_DELAY_SHA256`. Together they reach 1,000 runs, other seeds, and the fault, fallback,
override, hysteresis and zero-delay switch paths. Re-pin only on purpose. This only reads perfbench/.
"""

from __future__ import annotations

import pytest

from spec_check import PIN_NAMES, check_pins


@pytest.mark.parametrize("name", PIN_NAMES)
def test_default_seed_workload_matches_its_pins(name):
    assert check_pins([name]) > 0
