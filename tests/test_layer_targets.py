"""The traced benchmark still measures what the package does.

perfbench/layers.py's trace of `adastream run` on the bundled adaptive config runs once here, and
two pins read the JSON summary it writes: each layer's calls (`layers[*].calls`) and what the
observers counted from the traced stages' arguments and results (`counts`). Its `install()`
resolves every `TARGETS` row, so a row that names nothing fails the traced child. This file imports
nothing from perfbench/; perfbench/test_perfbench.py checks the tracer itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spec_check import bundled_config_path

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[dict, Path]:
    """perfbench/layers.py's summary of `adastream run` on the bundled adaptive config, and the out dir it wrote."""
    root = tmp_path_factory.mktemp("traced")
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layers.py"), str(root / "trace.json"),
         "run", str(bundled_config_path("table3-adaptive")), "--out", str(root / "out")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return json.loads((root / "trace.json").read_text(encoding="utf-8")), root / "out"


# Each traced layer's call count on the bundled adaptive config, a pure function
# of the config: 100 runs of 30 one-second ticks, one switch per run, each run's
# events and runs.csv row written as it ends. Re-pin only on purpose, as with
# the golden digests.
BUNDLED_ADAPTIVE_CALLS = {
    "cli.import": 1,
    "cli.main": 1,
    "scenario.load_scenario": 1,
    "experiment.run_experiment": 1,
    "mapek.Engine.init": 1,
    "netsim.generate_trace": 2,
    "netsim.compute_threshold": 1,
    "mapek.Engine.run": 1,
    "experiment.events_jsonl_text": 100,
    "metrics.aggregate": 1,
    "experiment.runs_csv_text": 100,
    "metrics.render_report": 2,
    "metrics.selection_fractions": 1,
    "netsim.probe": 3_000,
    "netsim.FaultSchedule.active": 6_000,
    "mapek.Monitor.tick": 3_000,
    "mapek.Analyzer.evaluate": 3_000,
    "mapek.plan": 3_000,
    "mapek.Executor.execute": 3_000,
    "kb.register_strategy": 100,
    "kb.latest_strategy": 3_000,
    "stream.StreamState.step": 3_000,
    "stream.StreamState.apply_config": 100,
    "stream.StreamState.finalize_run": 100,
}


def test_each_traced_layer_is_called_as_often_as_pinned(traced):
    summary, _ = traced
    assert {name: layer["calls"] for name, layer in summary["layers"].items()} == BUNDLED_ADAPTIVE_CALLS


def test_the_tracers_observers_read_what_the_traced_stages_take(traced):
    # The observers read generate_trace's result, compute_threshold's arguments (the warmup
    # window in seconds) and events_jsonl_text's result; a changed signature or sink that kept
    # every byte would still skew netsim.warmup.*, the sample count or the events size.
    summary, out = traced
    assert summary["counts"] == {
        # both traces: 100 runs of 30 one-second samples, then the 65-sample warmup
        "netsim.generate_trace.samples": 3_065,
        # the samples in [27 s, 65 s) that compute_threshold averages, of the 65 it is given
        "netsim.warmup.used": 38,
        "netsim.warmup.generated": 65,
        # the sink writes exactly the text the traced encoder returns
        "experiment.events_jsonl.bytes": (out / "events.jsonl").stat().st_size,
    }
