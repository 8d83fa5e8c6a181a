"""Every benchmark pin, checked in-process: each default-seed workload's runs
and comparisons produce the bytes pinned in perfbench/golden.json.

perfbench/golden.json is the one home of the bundled configs' pins: table3-sweep
runs the three bundled Table-3 configs at seed 42 and compares them. The other
workloads reach 1,000 runs (adaptive-long), other seeds (table3-sweep), and the
fault, fallback, override and hysteresis paths (fault-storm). This test only
reads perfbench/.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

from adastream.experiment import compare, render_comparison, run_experiment  # noqa: E402
from adastream.scenario import parse_scenario  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_default_seed_workload_matches_its_pins(tmp_path, name):
    workload = workloads.make(name, workloads.DEFAULT_SEED, run.CONFIGS)
    for exp in workload.experiments:
        config, diags = parse_scenario(json.loads(exp.config))
        assert config is not None, diags
        run_experiment(config, tmp_path / exp.name)
        assert sorted(p.name for p in (tmp_path / exp.name).iterdir()) == sorted(run.ARTIFACTS)
        pin = GOLDEN["runs"][exp.digest]
        digests = {a: _sha256((tmp_path / exp.name / a).read_bytes()) for a in run.ARTIFACTS}
        assert digests == {a: pin[a] for a in run.ARTIFACTS}, pin["name"]
    for names in workload.comparisons:
        digests = [e.digest for e in workload.experiments if e.name in names]
        pin = GOLDEN["compares"][run.comparison_key(digests)]
        text = render_comparison(compare([tmp_path / n for n in names]))
        assert _sha256(text.encode("utf-8")) == pin[run.COMPARE_ARTIFACT], pin["name"]
