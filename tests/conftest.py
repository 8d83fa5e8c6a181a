from __future__ import annotations

import re

import pytest

from adastream.kb import AdaptationSpace, RunRecord, StreamConfig, default_space
from adastream.mapek import Engine
from adastream.netsim import FaultSchedule, FaultWindow
from adastream.metrics import RunFold, quality_scores
from adastream.scenario import parse_scenario

from spec_check import parsed_events, run_into_jsonl, small_document


def fold_of(records, space: AdaptationSpace) -> RunFold:
    """The records folded as `run_experiment` folds its runs."""
    fold = RunFold(space.names, quality_scores(space))
    for record in records:
        fold.add(record)
    return fold


LR = StreamConfig("LR", 30, 0.99)
PROBE_DOWN, REGISTRY_DOWN = "probe-unavailable", "registry-unavailable"

# The checked value types' error rules, in one table that tests/test_kb.py and
# tests/test_netsim.py run by type. Each checked type: the keyword arguments of `of` for one valid value, and
# changes to them, each with the exact ValueError message `of` raises, or None
# where the changed value is valid too. FaultSchedule.of takes the windows and
# keeps only its per-kind index of them.
OF_CASES = {
    AdaptationSpace: (
        {"configs": default_space().configs},
        [
            ({"configs": ()}, "adaptation space must not be empty"),
            ({"configs": (LR, LR)}, "config names must be unique, got ['LR', 'LR']"),
        ],
    ),
    RunRecord: (
        {"run_index": 0, "duration_us": 100, "reconfig_us": 10, "switches": 1, "streamed_us": {"LR": 90}},
        [
            ({"run_index": -1}, "run index and switches must be non-negative, got -1 and 1"),
            ({"switches": -3}, "run index and switches must be non-negative, got 0 and -3"),
            ({"streamed_us": {"LR": 100, "HR": -10}}, "run 0: negative streamed time in {'LR': 100, 'HR': -10}"),
            ({"duration_us": 0}, "run duration must be positive, got 0 us"),
            ({"reconfig_us": 120}, "reconfig time 120 us outside [0, 100] us"),
            (
                {"streamed_us": {"LR": 80}},
                "run 0: time accounting broken: streamed 80 + reconfig 10 != duration 100",
            ),
        ],
    ),
    FaultSchedule: (
        # windows of one kind may touch
        {"windows": (FaultWindow(5, 9, PROBE_DOWN), FaultWindow(9, 12, PROBE_DOWN))},
        [
            (
                {"windows": (FaultWindow(5, 9, PROBE_DOWN), FaultWindow(8, 12, PROBE_DOWN))},
                "overlapping probe-unavailable fault windows",
            ),
            # windows of different kinds may overlap
            ({"windows": (FaultWindow(5, 9, PROBE_DOWN), FaultWindow(8, 12, REGISTRY_DOWN))}, None),
        ],
    ),
}


def check_of(cls) -> None:
    """Build `cls.of`'s valid value and each table row: a valid row builds, an invalid
    one raises exactly its ValueError message."""
    fields, changes = OF_CASES[cls]
    cls.of(**fields)
    for changed, message in changes:
        if message is None:
            cls.of(**{**fields, **changed})
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
            cls.of(**{**fields, **changed})
        assert type(raised.value) is ValueError


def make_scenario(**overrides):
    """`small_document(**overrides)`, parsed."""
    config, diags = parse_scenario(small_document(**overrides))
    assert config is not None, f"fixture scenario invalid: {diags}"
    return config


def run_dropping_events(config) -> tuple[RunRecord, ...]:
    """The engine's run records, in order, with each run's tick records dropped."""
    records = []
    Engine(config).run(lambda record, ticks: records.append(record))
    return tuple(records)


def run_with_events(config) -> tuple[tuple[RunRecord, ...], list[dict]]:
    """Run the engine and parse the events.jsonl lines it wrote; test_event_sink checks each line
    on its own."""
    records, text = run_into_jsonl(Engine(config))
    return records, parsed_events(text)
