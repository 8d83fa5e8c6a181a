"""Golden digests: the bundled Table-3 configs at seed 42 produce pinned bytes.

Every artifact is a pure function of (config, seed), so any change to a
writer, the event encoder, the loop or the comparison text that moves a
single byte fails here. Re-pin only on purpose, together with
`perfbench/golden.json`.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from adastream.experiment import compare, render_comparison, run_experiment
from adastream.scenario import load_scenario, parse_scenario

from conftest import ZERO_DELAY_CHANGES, bundled_config_path

GOLDEN_SHA256 = {
    "table3-static-lr": {
        "runs.csv": "e6fce3c178fa8f234d9250e19490e9cf6bdf8151311b26c6e2a550ec74cc0405",
        "events.jsonl": "a20f7e994b4882d96b7d533e8b55b5eb05444dd4ea877648ec4a8abaab73f0c0",
        "report.csv": "3bc2e6f0237272c6194064fe192d96bd931378e75d371d6aa8341f1cff1f36ec",
        "report.txt": "3c3939a2b6dffb040c1cc2d18cb9d07a7311e20e49b5562fbd931e7d1f1bb097",
    },
    "table3-static-hr": {
        "runs.csv": "51942d80b3b0d078c192dbbd18367a543e41551c3a77146c66b2a789e2f55269",
        "events.jsonl": "ee8a0be4cd3cfe0c0b19c3a39b9ce8b79637e907d4ccc6762a75f0d1551edcd2",
        "report.csv": "dfc9f862cf853db79a32a4e12a7bbb44033699b076faabd706fbe3c347b37acd",
        "report.txt": "07f2862f2b5d4fb76e523f43a3cce95f8b2e639e05771857586c271092938a3a",
    },
    "table3-adaptive": {
        "runs.csv": "aa6e6b369f710ea310b0b468a3e5ef97ec5622bfb08369053a9e4894ea6f2653",
        "events.jsonl": "8a01b73568f700463c9c93cd5bd43d6c7f87c81258df9e79e2c923294dd1a1bc",
        "report.csv": "30d0dc83a0afcc5ff257eb10b9501462046f0a3d2c85238f2f4c52a6804c0ca0",
        "report.txt": "4bb3c895827e8040d6c26f47ebeae4eab5ddaebc7281f0fbc6f508b5202e232d",
    },
}

# The zero-delay config, conftest's ZERO_DELAY_CHANGES over the bundled adaptive one.
ZERO_DELAY_SHA256 = {
    "runs.csv": "9e2525d83bd7fd85373be86186e46ddc85bca06f841dc5ce90f49840d8978fbb",
    "events.jsonl": "06f204780a7ddc24e03e0f3d0b03a171ae22835cc360293f750ec39ace4c5be0",
    "report.csv": "b85c53ca5a1ee6ca301815bfec1d3e6320343486cfabdbab0232a66b0a685525",
    "report.txt": "71e02e280ea2c4ce6dd4c32a02ed81e04fa759e54ac1057a453a5a123aef8254",
}

# `render_comparison(compare([static-LR, static-HR, adaptive]))` over the
# three configs above, as `adastream compare` prints it.
GOLDEN_COMPARE_SHA256 = "84e255911410551020f797d7bcc1a4a67f024c085e879875082d0fb14fbaffe7"


def artifact_digests(out_dir, artifacts) -> dict[str, str]:
    return {artifact: hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest() for artifact in artifacts}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_bundled_config_artifacts_match_golden_digests(tmp_path, name):
    config = load_scenario(bundled_config_path(name))
    assert config.seed == 42
    run_experiment(config, tmp_path)
    assert artifact_digests(tmp_path, GOLDEN_SHA256[name]) == GOLDEN_SHA256[name]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN_SHA256[name])


def test_zero_delay_switches_match_golden_digests(tmp_path):
    document = json.loads(bundled_config_path("table3-adaptive").read_text(encoding="utf-8"))
    config, diags = parse_scenario({**document, **ZERO_DELAY_CHANGES})
    assert diags == []
    run_experiment(config, tmp_path)
    assert artifact_digests(tmp_path, ZERO_DELAY_SHA256) == ZERO_DELAY_SHA256


def test_bundled_comparison_matches_golden_digest(tmp_path):
    dirs = []
    for name in ("table3-static-lr", "table3-static-hr", "table3-adaptive"):
        run_experiment(load_scenario(bundled_config_path(name)), tmp_path / name)
        dirs.append(tmp_path / name)
    text = render_comparison(compare(dirs))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_COMPARE_SHA256
