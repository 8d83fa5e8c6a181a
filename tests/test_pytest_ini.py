"""The repo's pytest settings, run by a child pytest over a throwaway test file."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0


def test_a_deprecation_warning_is_an_error():
    warnings.warn("deprecated", DeprecationWarning)


def test_one_that_passes():
    pass
'''


def test_a_failing_hypothesis_property_is_reported_as_a_failure(tmp_path):
    # hypothesis's failure report imports libcst, which warns through mypy_extensions; under
    # filterwarnings = ["error"] alone that was an INTERNALERROR (exit 3), which hid the
    # failure and ended the session before the next test
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY_TESTS, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = child.stdout + child.stderr
    assert child.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "2 failed, 1 passed" in output
    # each failure is reported under its own name
    assert "_ test_a_property_that_fails _" in output
    assert "_ test_a_deprecation_warning_is_an_error _" in output
