from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

import adastream
from adastream.experiment import JsonlFileSink, parse_runs_csv
from adastream.kb import AdaptationSpace, AdaptationStrategy, RunRecord
from adastream.mapek import Engine
from adastream.metrics import QualityWeights, RunFold, config_quality_score, quality_scores
from adastream.scenario import parse_scenario


def bundled_config_path(name: str) -> Path:
    """Path of a scenario file shipped with the package, e.g. 'table3-adaptive'."""
    return Path(adastream.__file__).parent / "configs" / f"{name}.json"


def quality_performance(record: RunRecord, space: AdaptationSpace, qw: QualityWeights) -> float:
    """One run's qp by its definition: the streamed-time-weighted mean of the config scores."""
    scores = {c.name: config_quality_score(c, space, qw) for c in space.configs}
    return sum(us * scores[name] for name, us in record.streamed_us.items()) / sum(record.streamed_us.values())


def fold_of(records, space: AdaptationSpace) -> RunFold:
    """The records folded as `run_experiment` folds its runs."""
    fold = RunFold(space.names, quality_scores(space))
    for record in records:
        fold.add(record)
    return fold


def parsed_runs(path) -> tuple[str | None, tuple[str, ...], list[RunRecord]]:
    """What `parse_runs_csv` reads from a runs.csv: the scenario, the config
    names of its seconds columns, and each row's record as it is folded."""
    folded = []
    add = RunFold.add

    def keeping(fold, record):
        folded.append(record)
        add(fold, record)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RunFold, "add", keeping)
        scenario, fold = parse_runs_csv(path)
    return scenario, fold.names, folded


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


def run_dropping_events(config) -> tuple[RunRecord, ...]:
    """The engine's run records, in order, with each run's tick records dropped."""
    records = []
    Engine(config).run(lambda record, ticks: records.append(record))
    return tuple(records)


def run_into_jsonl(config) -> tuple[tuple[RunRecord, ...], str]:
    """Run the engine into events.jsonl's encoder: the run records and the text it wrote."""
    file = io.StringIO()
    sink = JsonlFileSink(file)
    records = []

    def write_run(record, ticks):
        records.append(record)
        sink.write_run(record, ticks)

    Engine(config).run(write_run)
    return tuple(records), file.getvalue()


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
