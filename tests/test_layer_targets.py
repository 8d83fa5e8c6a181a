"""The traced benchmark's stage names still resolve in the package.

perfbench/layers.py wraps each stage by looking up `vars(owner)[attr]`,
so renaming or folding away a traced stage breaks `perfbench/run.py
--trace 1`. These checks catch that in the package's own test run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402

from adastream import mapek, netsim  # noqa: E402


@pytest.mark.parametrize(
    "module_name, path", [(module, path) for _, module, path, _ in layers.TARGETS]
)
def test_every_traced_target_resolves(module_name, path):
    *_, original = layers._resolve(module_name, path)
    assert callable(original), f"{module_name}:{path} is not callable"


def test_mapek_binds_the_stages_it_calls():
    # install() rewraps these names in mapek's namespace, where the loop calls them
    for name in ("probe", "generate_trace", "compute_threshold"):
        assert vars(mapek)[name] is vars(netsim)[name]
    assert callable(vars(mapek)["plan"])
