"""Golden digests: the zero-delay config at seed 42 produces pinned bytes.

Every artifact is a pure function of (config, seed), so any change to a
writer, the event encoder or the loop that moves a single byte fails here.
The bundled Table-3 configs and their comparison are pinned once, in
`perfbench/golden.json`, which tests/test_benchmark_pins.py checks. The
zero-delay switch path is pinned nowhere else. Re-pin only on purpose.
"""

from __future__ import annotations

import hashlib
import json

from adastream.experiment import run_experiment
from adastream.scenario import parse_scenario

from conftest import ZERO_DELAY_CHANGES, bundled_config_path

# The zero-delay config, conftest's ZERO_DELAY_CHANGES over the bundled adaptive one.
ZERO_DELAY_SHA256 = {
    "runs.csv": "9e2525d83bd7fd85373be86186e46ddc85bca06f841dc5ce90f49840d8978fbb",
    "events.jsonl": "06f204780a7ddc24e03e0f3d0b03a171ae22835cc360293f750ec39ace4c5be0",
    "report.csv": "b85c53ca5a1ee6ca301815bfec1d3e6320343486cfabdbab0232a66b0a685525",
    "report.txt": "71e02e280ea2c4ce6dd4c32a02ed81e04fa759e54ac1057a453a5a123aef8254",
}


def test_zero_delay_switches_match_golden_digests(tmp_path):
    document = json.loads(bundled_config_path("table3-adaptive").read_text(encoding="utf-8"))
    config, diags = parse_scenario({**document, **ZERO_DELAY_CHANGES})
    assert diags == []
    run_experiment(config, tmp_path)
    digests = {a: hashlib.sha256((tmp_path / a).read_bytes()).hexdigest() for a in ZERO_DELAY_SHA256}
    assert digests == ZERO_DELAY_SHA256
