"""The repo's pytest settings, run by a child pytest over a throwaway test file."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY_TESTS = '''
import warnings


def test_a_deprecation_warning_is_an_error():
    warnings.warn("deprecated", DeprecationWarning)


def test_one_that_passes():
    pass
'''


def test_a_warning_fails_its_own_test_and_not_the_session(tmp_path):
    # filterwarnings = ["error"]: a warning is the failure of the test that raised it, reported
    # under its name, and the next test still runs
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY_TESTS, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = child.stdout + child.stderr
    assert child.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert "_ test_a_deprecation_warning_is_an_error _" in output
