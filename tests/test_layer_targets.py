"""The traced benchmark still measures what the package does.

perfbench/layers.py wraps each stage it names in `TARGETS`, and its
observers read the traced stages' arguments and results. This file checks
that each of those names resolves in the package, pins how often the traced
`adastream run` of the bundled adaptive config calls each layer, checks that
the observers read the warmup window and the trace samples the stages take,
and that the sink writes exactly the text the traced encoder returns.
perfbench/test_perfbench.py checks the tracer itself: that it rebinds every
imported name and that a traced CLI writes the plain CLI's bytes.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402

from adastream import experiment  # noqa: E402
from adastream.mapek import Engine  # noqa: E402
from adastream.netsim import sample_indices  # noqa: E402
from adastream.scenario import load_scenario  # noqa: E402
from adastream.units import to_us  # noqa: E402

from spec_check import bundled_config_path  # noqa: E402


@pytest.mark.parametrize(
    "module_name, path", [(module, path) for _, module, path, _ in layers.TARGETS]
)
def test_every_traced_target_resolves(module_name, path):
    *_, original = layers._resolve(module_name, path)
    assert callable(original), f"{module_name}:{path} is not callable"


def test_the_sink_writes_exactly_the_text_the_traced_encoder_returns(monkeypatch):
    # The tracer's events_bytes observer counts len() of what
    # events_jsonl_text returns, through the module binding the sink calls.
    returned = []
    original = experiment.events_jsonl_text

    def recording(*args, **kwargs):
        text = original(*args, **kwargs)
        returned.append(text)
        return text

    monkeypatch.setattr(experiment, "events_jsonl_text", recording)
    config = load_scenario(bundled_config_path("table3-adaptive"))._replace(runs=3)
    file = io.StringIO()
    Engine(config).run(experiment.JsonlFileSink(file, config.space.names).write_run)
    assert len(returned) == config.runs
    assert all(type(text) is str for text in returned)
    assert "".join(returned) == file.getvalue()


def traced_bundled_adaptive_run(tmp_path) -> dict:
    """perfbench/layers.py's trace of `adastream run` on the bundled adaptive config."""
    trace_file = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layers.py"), str(trace_file),
         "run", str(bundled_config_path("table3-adaptive")), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True, capture_output=True, timeout=60,
    )
    return json.loads(trace_file.read_text(encoding="utf-8"))


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


def test_each_traced_layer_is_called_as_often_as_pinned(tmp_path):
    layers_seen = traced_bundled_adaptive_run(tmp_path)["layers"]
    assert {name: layer["calls"] for name, layer in layers_seen.items()} == BUNDLED_ADAPTIVE_CALLS


def test_the_tracers_observers_read_what_the_traced_stages_take(tmp_path):
    # The observers read generate_trace's result and compute_threshold's
    # arguments, the warmup window in seconds; a changed signature that kept
    # every byte would still skew netsim.warmup.* and the sample count.
    config = load_scenario(bundled_config_path("table3-adaptive"))
    counts = traced_bundled_adaptive_run(tmp_path)["counts"]
    warmup, step_us = config.warmup, config.trace.step_us
    used = len(sample_indices(to_us(warmup.start_s), to_us(warmup.end_s), step_us))
    assert used == 38
    assert counts["netsim.warmup.used"] == used
    assert counts["netsim.warmup.generated"] == 65
    # both traces: 100 runs of 30 one-second samples, then the 65-sample warmup
    assert counts["netsim.generate_trace.samples"] == 3_065
