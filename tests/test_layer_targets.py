"""The traced benchmark's stage names still resolve in the package.

perfbench/layers.py wraps each stage by looking up `vars(owner)[attr]`,
so renaming or folding away a traced stage breaks `perfbench/run.py
--trace 1`. These checks catch that in the package's own test run.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402

from adastream import experiment, mapek, netsim  # noqa: E402
from adastream.mapek import Engine  # noqa: E402
from adastream.scenario import load_scenario  # noqa: E402

from conftest import bundled_config_path  # noqa: E402


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
    Engine(config).run(experiment.JsonlFileSink(file))
    assert len(returned) == config.runs
    assert all(type(text) is str for text in returned)
    assert "".join(returned) == file.getvalue()
