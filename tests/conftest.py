from __future__ import annotations

import io
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

import adastream
from adastream.experiment import JsonlFileSink, parse_runs_csv
from adastream.kb import AdaptationSpace, AdaptationStrategy, RunRecord, StreamConfig, default_space
from adastream.mapek import Engine
from adastream.netsim import FaultSchedule, FaultWindow
from adastream.metrics import RunFold, quality_scores
from adastream.scenario import parse_scenario

# Hypothesis mixes literals from every loaded module outside the standard
# library, site-packages and test files into about one draw in twenty. The
# whole suite loads the CLI and the benchmark's runner, layers and workloads;
# loading them here makes tests/spec_corpus.py's redraw, and each derandomized
# property left (the fmean, any-document and pending-model ones) run alone,
# draw what they draw in the whole suite.
import adastream.cli  # noqa: E402,F401

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import run  # noqa: E402,F401
    import workloads  # noqa: E402
finally:
    sys.path.pop(0)


def bundled_config_path(name: str) -> Path:
    """Path of a scenario file shipped with the package, e.g. 'table3-adaptive'."""
    return Path(adastream.__file__).parent / "configs" / f"{name}.json"


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


def small_document(**overrides) -> dict:
    """A small valid scenario document, patched by keyword: 4 runs of 30 one-second ticks."""
    return {
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
        **overrides,
    }


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


def run_into_jsonl(engine: Engine) -> tuple[tuple[RunRecord, ...], str]:
    """Run the engine into events.jsonl's encoder: the run records and the text it wrote."""
    file = io.StringIO()
    sink = JsonlFileSink(file, engine.config.space.names)
    records = []

    def write_run(record, ticks):
        records.append(record)
        sink.write_run(record, ticks)

    engine.run(write_run)
    return tuple(records), file.getvalue()


def run_with_events(config) -> tuple[tuple[RunRecord, ...], list[dict]]:
    """Run the engine and parse the events.jsonl lines it wrote.

    The lines are parsed as one JSON array, in one call, which takes half
    the time of a json.loads per line; test_event_sink checks each line on
    its own.
    """
    records, text = run_into_jsonl(Engine(config))
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


# Bounds on a generated document: its loop ticks and its trace samples.
_MAX_TICKS = 20_000
_MAX_SAMPLES = 50_000

# Quote, backslash, control characters, and non-ASCII (BMP and astral); no
# ',' or line break, which a config name may not hold.
NAME_CHARS = st.sampled_from(list('"\\\x00\x01\x1f\x7f\t/é€😀ab'))


@st.composite
def bounded_documents(draw, own_space=False):
    """A scenario document of at most _MAX_TICKS ticks and _MAX_SAMPLES trace samples.

    Times are drawn in whole microseconds, so each seconds value in the
    document converts back exactly. Some documents hold a total run time
    below one trace step, or a warmup window between two sample instants.
    With `own_space`, each brings its own adaptation space: one to three
    configs, whose names need JSON escaping and whose frame rates may tie.
    """
    runs = draw(st.integers(1, 4))
    step_us = draw(st.sampled_from([1, 1_000, 250_000, 1_000_000, 3_000_000, 60_000_000]))
    interval_us = draw(st.sampled_from(
        [us for us in (1, 1_000, 250_000, 1_000_000, 3_000_000) if runs * us <= _MAX_SAMPLES * step_us]
    ))
    run_limit_us = min(_MAX_TICKS * interval_us, _MAX_SAMPLES * step_us) // runs
    run_us = interval_us * draw(st.integers(1, max(1, run_limit_us // interval_us)))
    total_us = runs * run_us

    def instant(steps):
        """On, or just off, one of the first `steps` sample instants."""
        nudge = draw(st.sampled_from([0, 1, -1, step_us // 2]))
        return max(0, draw(st.integers(0, steps)) * step_us + nudge)

    start_us, end_us = instant(30), instant(60)
    if end_us <= start_us:
        end_us = start_us + draw(st.integers(1, step_us))
    warmup = {"start_s": start_us / 1e6, "end_s": end_us / 1e6}
    warmup["duration_s"] = end_us / 1e6 + draw(st.sampled_from([0.0, 1.0, 1e4]))

    faults = []
    for kind in ("probe-unavailable", "registry-unavailable"):
        cursor = 0
        for _ in range(draw(st.integers(0, 2))):
            start = cursor + draw(st.integers(0, total_us))
            cursor = start + draw(st.integers(1, total_us))
            faults.append({"start_s": start / 1e6, "end_s": cursor / 1e6, "kind": kind})

    names, space = ["LR", "HR"], {}
    if own_space:
        names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=5), min_size=1, max_size=3, unique=True))
        space["adaptation_space"] = [
            {
                "name": name,
                "frame_rate": draw(st.sampled_from([1, 30, 60])),
                "scale_w": 320,
                "scale_h": 240,
                "quality_score": draw(st.sampled_from([0.0, 0.2, 0.99, 1.0])),
            }
            for name in names
        ]
    scenario = draw(st.sampled_from(["adaptive", "adaptive", *(f"static-{name}" for name in names)]))
    overrides = []
    if scenario == "adaptive":
        overrides = [
            {"at_s": draw(st.integers(0, total_us)) / 1e6, "target": draw(st.sampled_from(names))}
            for _ in range(draw(st.integers(0, 3)))
        ]
    return {
        "schema_version": 1,
        "scenario": scenario,
        "runs": runs,
        "run_duration_s": run_us / 1e6,
        "monitor_interval_s": interval_us / 1e6,
        "reconfig_delay_s": draw(st.sampled_from([0.0, 1e-6, 0.5, 2.7, 100.0])),
        # amplitudes above the mean clamp the trace to 0 Mbps for part of each period
        "trace": {
            "mean_mbps": draw(st.sampled_from([0.5, 5.0])),
            "amplitude_mbps": draw(st.sampled_from([0.0, 2.0, 8.0])),
            "period_s": draw(st.sampled_from([1e-6, 0.5, 7.0, 61.0])),
            "noise_sd_mbps": draw(st.sampled_from([0.0, 0.3])),
            "step_s": step_us / 1e6,
        },
        "probe_noise_sd_mbps": draw(st.sampled_from([0.0, 0.5])),
        "warmup": warmup,
        "faults": faults,
        **space,
        "hysteresis_mbps": draw(st.sampled_from([0.0, 0.4])),
        "user_overrides": overrides,
        "seed": draw(st.integers(0, 2**31)),
    }


# The bundled adaptive config with no reconfiguration delay, a registry outage
# and two user overrides, so that threshold, post-outage and override switches
# all complete in the step of the tick that applies them.
ZERO_DELAY_CHANGES = {
    "reconfig_delay_s": 0.0,
    "faults": [{"start_s": 400.0, "end_s": 460.0, "kind": "registry-unavailable"}],
    "user_overrides": [{"at_s": 1000.0, "target": "LR"}, {"at_s": 2000.0, "target": "HR"}],
}


# Loop scenarios on a constant trace with no noise, which ties at its own warmup
# mean: every healthy probe reads above-threshold, so each scenario's faults and
# overrides decide what the loop does, one rule apiece.
CONSTANT = {
    "trace": {"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
    "probe_noise_sd_mbps": 0.0,
    "warmup": {"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
}
LOOP_SCENARIOS = {
    # the planner names the applied HR at every tick, so the engine issues nothing
    "keeps-high-rate": {"runs": 1},
    # an override issues a user-config strategy; threshold planning reverts it the next tick
    "user-override": {
        "runs": 2,
        "trace": {**CONSTANT["trace"], "mean_mbps": 5.0},
        "warmup": {"duration_s": 600.0, "start_s": 0.0, "end_s": 600.0},
        "user_overrides": [{"at_s": 10.0, "target": "LR"}],
    },
    # an override due in a registry outage is planned and dropped once, never retried
    "override-in-an-outage": {
        "runs": 2,
        "faults": [{"start_s": 10.0, "end_s": 20.0, "kind": "registry-unavailable"}],
        "user_overrides": [{"at_s": 12.0, "target": "LR"}],
    },
    # an outage during a switch falls back to its pending target, which the planner reads too
    "outage-during-a-switch": {
        "runs": 1,
        "reconfig_delay_s": 5.5,
        "faults": [{"start_s": 13.0, "end_s": 20.0, "kind": "registry-unavailable"}],
        "user_overrides": [{"at_s": 12.0, "target": "LR"}],
    },
    # of two overrides due at one tick the later acts, and the earlier leaves no event
    "overrides-due-at-one-tick": {
        "runs": 1,
        "user_overrides": [{"at_s": 12.2, "target": "LR"}, {"at_s": 12.7, "target": "HR"}],
    },
    # a due override to the applied config takes its tick's plan, so the planner waits a tick
    "override-to-the-applied-config": {
        "runs": 1,
        "initial_config": "LR",
        "faults": [{"start_s": 0.0, "end_s": 5.0, "kind": "probe-unavailable"}],
        "user_overrides": [{"at_s": 5.0, "target": "LR"}],
    },
}


def named_documents() -> dict[str, dict]:
    """Scenario documents by name: the three bundled configs, the zero-delay
    golden config, the benchmark's fault-storm config at seed 42, and the loop
    scenarios."""
    bundled = {
        name: json.loads(bundled_config_path(name).read_text(encoding="utf-8"))
        for name in ("table3-static-lr", "table3-static-hr", "table3-adaptive")
    }
    storm = workloads.make("fault-storm", 42, bundled_config_path("table3-adaptive").parent)
    return {
        **bundled,
        "zero-delay": {**bundled["table3-adaptive"], **ZERO_DELAY_CHANGES},
        "fault-storm@42": json.loads(storm.timed[0].config),
        **{name: small_document(**{**CONSTANT, **changes}) for name, changes in LOOP_SCENARIOS.items()},
    }
