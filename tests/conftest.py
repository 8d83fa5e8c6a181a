from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

import adastream
from adastream.experiment import JsonlFileSink
from adastream.kb import AdaptationSpace, AdaptationStrategy, RunRecord
from adastream.mapek import Engine
from adastream.metrics import QualityWeights, config_quality_score
from adastream.scenario import parse_scenario


def bundled_config_path(name: str) -> Path:
    """Path of a scenario file shipped with the package, e.g. 'table3-adaptive'."""
    return Path(adastream.__file__).parent / "configs" / f"{name}.json"


def quality_performance(record: RunRecord, space: AdaptationSpace, qw: QualityWeights) -> float:
    """One run's qp by its definition: the streamed-time-weighted mean of the config scores."""
    scores = {c.name: config_quality_score(c, space, qw) for c in space.configs}
    return sum(us * scores[name] for name, us in record.streamed_us.items()) / record.streamed_total_us


def make_scenario(**overrides):
    """Small valid scenario document, patched by keyword."""
    doc = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 4,
        "run_duration_s": 30.0,
        "monitor_interval_s": 1.0,
        "reconfig_delay_s": 2.7,
        "trace": {
            "mean_mbps": 5.0,
            "amplitude_mbps": 2.0,
            "period_s": 61.0,
            "noise_sd_mbps": 0.05,
            "step_s": 1.0,
        },
        "probe_noise_sd_mbps": 0.05,
        "warmup": {"duration_s": 600.0, "start_s": 27.0, "end_s": 65.0},
        "faults": [],
        "seed": 42,
    }
    doc.update(overrides)
    config, diags = parse_scenario(doc)
    assert config is not None, f"fixture scenario invalid: {diags}"
    return config


@pytest.fixture
def scenario_factory():
    return make_scenario


class DroppingSink:
    """An event sink that drops each run, for tests that read only the records."""

    def write_run(self, run_index, ticks):
        pass


def run_dropping_events(config) -> tuple[RunRecord, ...]:
    return Engine(config).run(DroppingSink())


def run_into_jsonl(config) -> tuple[tuple[RunRecord, ...], str]:
    """Run the engine into events.jsonl's encoder: the run records and the text it wrote."""
    file = io.StringIO()
    return Engine(config).run(JsonlFileSink(file)), file.getvalue()


def run_with_events(config) -> tuple[tuple[RunRecord, ...], list[dict]]:
    """Run the engine and parse the events.jsonl lines it wrote.

    The lines are parsed as one JSON array, in one call, which takes half
    the time of a json.loads per line; test_event_sink checks each line on
    its own.
    """
    records, text = run_into_jsonl(config)
    return records, json.loads("[" + ",".join(text.splitlines()) + "]")


def registered_strategies(events: list[dict]) -> list[AdaptationStrategy]:
    """The strategy history, rebuilt from events.jsonl lines in order.

    One strategy per `register` line with ok true; its reason comes from the
    `plan` line just before it, which names the same tick and target.
    """
    strategies = []
    for plan, line in zip(events, events[1:]):
        if line["event"] == "register" and line["ok"]:
            assert plan["event"] == "plan"
            assert (plan["t_us"], plan["target"]) == (line["t_us"], line["target"])
            strategies.append(AdaptationStrategy(line["strategy_id"], line["target"], plan["reason"]))
    return strategies
