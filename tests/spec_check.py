"""The spec check, standard library only: `check_document` holds `run_experiment` to the executable
spec in reference_loop.py, `check_pins` holds each default-seed benchmark workload and the
zero-delay config to their pinned digests, and `check_mean`, `check_mutations`, `check_stream_ops`,
`check_trace`, `check_probe_noise` and `check_rounding` are the fmean, any-document, pending-model,
trace, probe-noise and display-rounding properties, run on recorded examples and named cases. The
suite calls them under pytest; run as a script, on any Python, it checks the named documents, every
corpus file and every pin, and prints one line of counts, or one line naming the first document,
example or pin that fails, and exits 1."""

from __future__ import annotations

import copy
import gc
import hashlib
import io
import json
import re
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from statistics import fmean

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # a checkout, with no install
    sys.path.insert(0, str(ROOT / "src"))

import adastream  # noqa: E402
from adastream import metrics  # noqa: E402
from adastream.errors import SimulationError  # noqa: E402
from adastream.experiment import JsonlFileSink, compare, parse_runs_csv, render_comparison, run_experiment  # noqa: E402
from adastream.experiment import runs_csv_text  # noqa: E402
from adastream.kb import AdaptationStrategy, RunRecord, default_space  # noqa: E402
from adastream.mapek import Engine  # noqa: E402
from adastream.metrics import RunFold, _quality_at, aggregate, quality_scores, round_half_up  # noqa: E402
from adastream.netsim import FAULT_KINDS, BandwidthTrace, FaultSchedule, TraceParams, generate_trace, probe  # noqa: E402
from adastream.scenario import ScenarioConfig, parse_scenario  # noqa: E402
from adastream.stream import StreamState  # noqa: E402
from adastream.units import to_us  # noqa: E402

import spec_corpus  # noqa: E402
from spec_corpus import BASE, DELAY_US  # noqa: E402
from reference_loop import PendingModel, Refused, cell, events_jsonl, noisy_upload, qp, reference_artifacts, trace  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import run  # noqa: E402
    import workloads  # noqa: E402
finally:
    sys.path.pop(0)


def bundled_config_path(name: str) -> Path:
    """Path of a scenario file shipped with the package, e.g. 'table3-adaptive'."""
    return Path(adastream.__file__).parent / "configs" / f"{name}.json"


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


# The bundled adaptive config with no reconfiguration delay, a registry outage
# and two user overrides, so that threshold, post-outage and override switches
# all complete in the step of the tick that applies them.
ZERO_DELAY_CHANGES = {
    "reconfig_delay_s": 0.0,
    "faults": [{"start_s": 400.0, "end_s": 460.0, "kind": "registry-unavailable"}],
    "user_overrides": [{"at_s": 1000.0, "target": "LR"}, {"at_s": 2000.0, "target": "HR"}],
}
# Its four artifacts at seed 42. No benchmark workload runs it, so this is its only pin.
ZERO_DELAY_SHA256 = {
    "runs.csv": "9e2525d83bd7fd85373be86186e46ddc85bca06f841dc5ce90f49840d8978fbb",
    "events.jsonl": "06f204780a7ddc24e03e0f3d0b03a171ae22835cc360293f750ec39ace4c5be0",
    "report.csv": "b85c53ca5a1ee6ca301815bfec1d3e6320343486cfabdbab0232a66b0a685525",
    "report.txt": "71e02e280ea2c4ce6dd4c32a02ed81e04fa759e54ac1057a453a5a123aef8254",
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
    # the top frame rate ties, and the first config in order, not the smallest name, is the
    # highest: the loop boots there, and reverts to it an override made in a probe outage
    "tied-top-frame-rate": {
        "runs": 2,
        "adaptation_space": [
            {"name": "HR", "frame_rate": 60, "scale_w": 720, "scale_h": 480, "quality_score": 0.2},
            {"name": "AR", "frame_rate": 60, "scale_w": 720, "scale_h": 480, "quality_score": 0.5},
            {"name": "LR", "frame_rate": 30, "scale_w": 320, "scale_h": 240, "quality_score": 0.99},
        ],
        "faults": [{"start_s": 10.0, "end_s": 20.0, "kind": "probe-unavailable"}],
        "user_overrides": [{"at_s": 12.0, "target": "LR"}],
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


def parsed_events(text: str) -> list[dict]:
    """The events of an events.jsonl text, parsed as one JSON array in one call, which takes half
    the time of a json.loads per line."""
    return json.loads("[" + ",".join(text.splitlines()) + "]")


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


def parsed_runs(path) -> tuple[str | None, tuple[str, ...], list[RunRecord]]:
    """What `parse_runs_csv` reads from a runs.csv: the scenario, the config
    names of its seconds columns, and each row's record as it is folded."""
    folded = []
    add = RunFold.add

    def keeping(fold, record):
        folded.append(record)
        add(fold, record)

    RunFold.add = keeping
    try:
        scenario, fold = parse_runs_csv(path)
    finally:
        RunFold.add = add
    return scenario, fold.names, folded


def assert_loop_invariants(config, records, events) -> None:
    """Criteria 6 and 7: exact time accounting, each run's closed-form qp equal to the one its step
    lines accumulate, an append-only strategy history, register -> apply causality, and the loop's
    fail-safe and static rules."""
    # fail-safe: every run completed and accounts for all elapsed time
    assert len(records) == config.runs
    for record in records:
        assert sum(record.streamed_us.values()) + record.reconfig_us == record.duration_us

    # per-step accounting is exact too, each step lasts one monitor interval, and a
    # static-<c> scenario streams c throughout
    pinned = config.scenario.removeprefix("static-") if config.scenario != "adaptive" else None
    per_run_elapsed: dict[int, int] = {}
    per_run_streamed: dict[int, dict[str, int]] = {}
    for event in events:
        if event["event"] != "step":
            continue
        assert event["dt_us"] == config.monitor_interval_us
        assert pinned in (None, event["active"])
        streamed, segment_us = per_run_streamed.setdefault(event["run"], {}), 0
        for name, us in event["segments"]:
            streamed[name] = streamed.get(name, 0) + us
            segment_us += us
        assert event["reconfig_us"] + segment_us == event["dt_us"]
        per_run_elapsed[event["run"]] = per_run_elapsed.get(event["run"], 0) + event["dt_us"]
    assert per_run_elapsed == dict.fromkeys(range(config.runs), config.run_duration_us)

    # criterion 6: the step segments add up, config by config, to each run's streamed
    # time, and the closed-form qp equals the spec's qp of that streamed time
    scores = quality_scores(config.space)
    for record in records:
        assert per_run_streamed[record.run_index] == record.streamed_us
        if not record.streamed_us:  # a run that only reconfigured has no qp
            continue
        for score in scores.values():
            assert abs(_quality_at(record, score) - qp(record, score)) <= 1e-9

    # the registered history, read from the register lines: strictly increasing ids
    strategies = registered_strategies(events)
    ids = [s.id for s in strategies]
    assert all(a < b for a, b in zip(ids, ids[1:]))

    # consecutive strategies never repeat a target
    targets = [s.target for s in strategies]
    assert all(a != b for a, b in zip(targets, targets[1:]))

    # causality: each applied change maps 1:1 to an earlier registration
    registered = {
        e["strategy_id"]: e["seq"]
        for e in events
        if e["event"] == "register" and e["ok"]
    }
    seen: set[int] = set()
    for event in events:
        if event["event"] == "execute" and event["applied"]:
            sid = event["strategy_id"]
            assert sid in registered and registered[sid] < event["seq"]
            assert sid not in seen
            seen.add(sid)
    assert len(seen) == len(registered)  # every registered strategy got executed

    # what the message types take on trust: a healthy probe reads >= 0 Mbps, a faulted
    # one is analyzed unknown, and a strategy is a user override or follows the tick's
    # own threshold condition, in an adaptive scenario only
    healthy = condition = None
    for event in events:
        if event["event"] == "monitor":
            healthy = event["ok"]
            assert not healthy or event["upload_mbps"] >= 0
        elif event["event"] == "analyze":
            condition = event["condition"]
            assert healthy or condition == "unknown"
        elif event["event"] == "plan" and event["action"] == "strategy":
            assert pinned is None
            assert event["reason"] in ("below-threshold", "above-threshold", "user-config")
            assert event["reason"] in ("user-config", condition)


def assert_same_text(name: str, got: str, expected: str) -> None:
    """Byte equality, reported at the first line that differs."""
    if got != expected:
        pairs = zip_longest(got.splitlines(keepends=True), expected.splitlines(keepends=True))
        at, (wrote, spec) = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
        raise AssertionError(f"{name} line {at + 1}: got {wrote!r}, expected {spec!r}")


def without_runs(events_text: str) -> str:
    """events.jsonl with each line's `"run":N` field dropped."""
    return re.sub(r'(?m)^(\{"seq":\d+),"run":\d+', r"\1", events_text)


def ledger_sums(records) -> tuple[int, int, Counter]:
    """The runs' reconfiguration microseconds, switches, and streamed microseconds by config."""
    streamed = sum((Counter(r.streamed_us) for r in records), Counter())
    return sum(r.reconfig_us for r in records), sum(r.switches for r in records), streamed


def run_split_twin(config, document) -> dict | None:
    """The run-split relation: runs are measurement windows, not adaptation boundaries, so the
    same total time cut as one run writes the same events.jsonl once each line's run field is
    dropped, and the same ledger sums (`check_run_split`). The twin of a document of two or more
    runs; the parser refuses one whose one run holds more ticks than a run may."""
    if config.runs < 2:
        return None
    return {**document, "runs": 1, "run_duration_s": config.total_duration_us / 1e6}


def check_run_split(twin, expected, records) -> None:
    assert twin.run_duration_us == sum(record.duration_us for record in records)
    twin_records, twin_text = run_into_jsonl(Engine(twin))
    assert_same_text(
        "one-run twin's events.jsonl, run fields dropped", without_runs(twin_text), without_runs(expected["events.jsonl"])
    )
    assert ledger_sums(twin_records) == ledger_sums(records), "ledger sums of the one-run twin"


def fault_split_twin(config, document) -> dict | None:
    """The fault-split relation: a fault window downs its kind at each instant in it, so cutting
    one window into two adjacent windows of its kind leaves all four artifacts the same
    (`check_same_artifacts`). The window is the document's first with an interior microsecond,
    cut at the first tick instant inside it, or else at its middle microsecond; a document with
    no such window has no twin."""
    faults, interval_us = document.get("faults", []), config.monitor_interval_us
    for index, fault in enumerate(faults):
        start_us, end_us = to_us(fault["start_s"]), to_us(fault["end_s"])
        cut_us = (start_us // interval_us + 1) * interval_us
        if cut_us >= end_us:
            cut_us = (start_us + end_us) // 2
        if start_us < cut_us:
            halves = [{**fault, "end_s": cut_us / 1e6}, {**fault, "start_s": cut_us / 1e6}]
            return {**document, "faults": [*faults[:index], *halves, *faults[index + 1 :]]}
    return None


def far_fault_twin(config, document) -> dict:
    """The far-fault relation: the loop ticks only before the horizon, the experiment's total
    time, so one more window of each kind, one monitor interval long from the horizon (or from
    that kind's last window end, if later), leaves all four artifacts the same
    (`check_same_artifacts`)."""
    far = []
    for kind in FAULT_KINDS:
        start_us = max([config.total_duration_us, *config.faults.by_kind.get(kind, ((), ()))[1]])
        far.append({"start_s": start_us / 1e6, "end_s": (start_us + config.monitor_interval_us) / 1e6, "kind": kind})
    return {**document, "faults": [*document.get("faults", []), *far]}


def check_same_artifacts(twin, expected, records) -> None:
    with tempfile.TemporaryDirectory() as out:
        run_experiment(twin, out)
        for name, text in expected.items():
            assert_same_text(f"twin's {name}", (Path(out) / name).read_bytes().decode("utf-8"), text)


def renaming_twin(config, document) -> dict | None:
    """The renaming relation: a config's name labels it and decides nothing, so giving each config
    the next one's name along the space (the last the first's), which changes the names'
    alphabetical order, writes the original's artifacts with each name mapped (`check_renamed`).
    The pinned scenario, the initial config and the override targets are mapped alike, and a
    default-space document gets that space written out. A one-config space has no twin."""
    names = config.space.names
    if len(names) < 2:
        return None
    rename = dict(zip(names, names[1:] + names[:1]))
    twin = {**document, "adaptation_space": [
        {"name": rename[c.name], "frame_rate": c.frame_rate, "scale_w": 320, "scale_h": 240, "quality_score": c.quality_score}
        for c in config.space.configs
    ]}
    if config.scenario != "adaptive":
        twin["scenario"] = "static-" + rename[config.scenario.removeprefix("static-")]
    if "initial_config" in document:
        twin["initial_config"] = rename[document["initial_config"]]
    if "user_overrides" in document:
        twin["user_overrides"] = [{**override, "target": rename[override["target"]]} for override in document["user_overrides"]]
    return twin


def check_renamed(twin, expected, records) -> None:
    """The twin's runs.csv header and scenario column, events.jsonl name fields, and report.txt
    scenario and selection lines are the original's with each name mapped; its report.csv is the
    original's."""
    names = twin.space.names
    rename = dict(zip(names[-1:] + names[:-1], names))
    header, _, rows = expected["runs.csv"].partition("\n")
    renamed = {"report.csv": expected["report.csv"]}
    renamed["runs.csv"] = "".join(
        [",".join([*header.split(",")[:5], *(f"seconds_{name}" for name in names)]) + "\n"]
        + [f"{index},{twin.scenario},{cells}\n" for index, _, cells in (row.split(",", 2) for row in rows.splitlines())]
    )
    events = parsed_events(expected["events.jsonl"])
    for event in events:
        if event.get("target") is not None:
            event["target"] = rename[event["target"]]
        if event["event"] == "step":
            event["active"] = rename[event["active"]]
            event["segments"] = [[rename[name], us] for name, us in event["segments"]]
    renamed["events.jsonl"] = events_jsonl(events)
    # the selection lines name the configs in space order, one line each
    lines, selections = expected["report.txt"].split("\n"), iter(rename.items())
    for at, line in enumerate(lines):
        if line.startswith("scenario: "):
            lines[at] = f"scenario: {twin.scenario}"
        elif line.startswith("selection "):
            old, new = next(selections)
            lines[at] = f"selection {new}" + line.removeprefix(f"selection {old}")
    renamed["report.txt"] = "\n".join(lines)
    check_same_artifacts(twin, renamed, records)


# The metamorphic relations, each a document's twin and the check of the twin against the
# document's artifacts and run records. `check_documents` checks one on each document in turn,
# so each on every SPLIT_STRIDE-th document.
RELATIONS = {
    "run split": (run_split_twin, check_run_split),
    "fault split": (fault_split_twin, check_same_artifacts),
    "far fault": (far_fault_twin, check_same_artifacts),
    "renaming": (renaming_twin, check_renamed),
}
SPLIT_STRIDE = len(RELATIONS)


def check_document(document, relation: str | None = None) -> tuple[str, ...]:
    """What validate accepts, run finishes: its four artifacts are byte for byte
    the executable spec's, its runs.csv reads back, and its events keep the
    invariants of criteria 6 and 7. Where the experiment is refused after its
    loop ran to the end, the engine's events are the spec's, byte for byte.
    With a `relation` of RELATIONS, a document that has a twin keeps that relation too,
    which is skipped where the experiment or the twin is refused. The outcomes, for
    `check_documents` to count."""
    config, _ = parse_scenario(document)
    if config is None:
        return ("invalid",)
    twin_document = RELATIONS[relation][0](config, document) if relation else None
    skipped = () if twin_document is None else (f"{relation} skipped",)
    with tempfile.TemporaryDirectory() as out:
        try:
            expected, events = reference_artifacts(config)
        except Refused as refusal:
            # a zero threshold, or a run that only reconfigured: one error, no artifact
            try:
                run_experiment(config, out)
                raise AssertionError(f"run_experiment finished, the reference refused with {refusal!r}")
            except SimulationError as error:
                assert re.search(re.escape(str(refusal)), str(error)), (error, refusal)
            assert not any(Path(out).iterdir())
            if refusal.events is not None:
                # the loop itself ran to the end: its events and records are the spec's,
                # and keep the invariants
                records, text = run_into_jsonl(Engine(config))
                assert_same_text("events.jsonl", text, refusal.events_text)
                assert list(records) == refusal.records
                assert_loop_invariants(config, records, refusal.events)
            return ("refused", *skipped)
        run_experiment(config, out)
        for name, text in expected.items():
            assert_same_text(name, (Path(out) / name).read_bytes().decode("utf-8"), text)
        scenario, names, records = parsed_runs(Path(out) / "runs.csv")
    # runs.csv reads back to the config's scenario and names, and its rows render again to the file
    rows = "".join(runs_csv_text(record, scenario, names) for record in records)
    assert (scenario, names, rows) == (config.scenario, config.space.names, expected["runs.csv"].partition("\n")[2])
    assert_loop_invariants(config, records, events)
    if twin_document is None:
        return ("matched",)
    twin, _ = parse_scenario(twin_document)
    if twin is None:
        return ("matched", *skipped)
    RELATIONS[relation][1](twin, expected, records)
    return ("matched", f"{relation} held")


def check_documents(documents) -> Counter:
    """`check_document` on each (where, document), with the next of RELATIONS in turn: the count
    of each outcome. A failure names the document's `where`.

    The cyclic collector is off meanwhile: reference counting frees the spec's and the
    engine's event dicts, and each collection would walk every live one."""
    counts, relations = Counter(), list(RELATIONS)
    gc.disable()
    try:
        for index, (where, document) in enumerate(documents):
            try:
                counts.update(check_document(document, relations[index % SPLIT_STRIDE]))
            except BaseException as failure:
                failure.add_note(f"document {where}")
                raise
    finally:
        gc.enable()
    return counts


def check_pins(names=(*workloads.WORKLOADS, "zero-delay")) -> int:
    """Run each named default-seed benchmark workload, or the zero-delay config, and check its
    artifacts and comparisons against their sha256 pins, in perfbench/golden.json or
    ZERO_DELAY_SHA256: the number of digests checked. A failure names the pin."""
    checked, golden = 0, json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    for name in names:
        if name == "zero-delay":
            document = {**json.loads(bundled_config_path("table3-adaptive").read_bytes()), **ZERO_DELAY_CHANGES}
            experiments, comparisons = [(name, document, {"name": name, **ZERO_DELAY_SHA256})], []
        else:
            workload = workloads.make(name, workloads.DEFAULT_SEED, run.CONFIGS)
            experiments = [(e.name, json.loads(e.config), golden["runs"][e.digest]) for e in workload.experiments]
            comparisons = [
                (labels, golden["compares"][run.comparison_key([e.digest for e in workload.experiments if e.name in labels])])
                for labels in workload.comparisons
            ]
        with tempfile.TemporaryDirectory() as tmp:
            for label, document, pin in experiments:
                try:
                    run_experiment(parse_scenario(document)[0], Path(tmp) / label)
                    assert sorted(p.name for p in (Path(tmp) / label).iterdir()) == sorted(run.ARTIFACTS)
                    for artifact in run.ARTIFACTS:
                        digest = hashlib.sha256((Path(tmp) / label / artifact).read_bytes()).hexdigest()
                        assert digest == pin[artifact], f"{artifact} sha256 {digest}"
                except BaseException as failure:
                    failure.add_note(f"pin {pin['name']}")
                    raise
            for labels, pin in comparisons:
                digest = hashlib.sha256(render_comparison(compare([Path(tmp) / label for label in labels])).encode()).hexdigest()
                assert digest == pin[run.COMPARE_ARTIFACT], f"pin {pin['name']}: {run.COMPARE_ARTIFACT} sha256 {digest}"
        checked += len(run.ARTIFACTS) * len(experiments) + len(comparisons)
    return checked


def check_recorded(check, examples) -> int:
    """`check` on each (where, example): the number checked. A failure names the example's `where`."""
    checked = 0
    for where, example in examples:
        try:
            check(example)
        except BaseException as failure:
            failure.add_note(f"example {where}")
            raise
        checked += 1
    return checked


def check_mean(values) -> None:
    """The fmean property: folded as each run's tp and qp, `values` report means exactly
    `statistics.fmean`'s, by repr. The fold's stages are swapped for ones that return the next
    value, and restored afterwards."""
    space = default_space()
    fold = RunFold(space.names, quality_scores(space))
    run = RunRecord.of(run_index=0, duration_us=30_000_000, reconfig_us=0, switches=0, streamed_us={"LR": 30_000_000})
    time_performance, quality_at = metrics.time_performance, metrics._quality_at
    metrics.time_performance = lambda record: value
    metrics._quality_at = lambda record, score: value
    try:
        for value in values:
            fold.add(run)
    finally:
        metrics.time_performance, metrics._quality_at = time_performance, quality_at
    grid = aggregate(fold)
    means = {repr(mean) for row in ("tp", "qp") for mean in grid[row].values()}
    assert means == {repr(fmean(values))}, f"means {sorted(means)}, fmean {fmean(values)!r}"


def mutated(document, path, value):
    """A copy of `document` with the value at `path` replaced, or deleted if `value` is DELETE."""
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value is spec_corpus.DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


def check_mutations(mutations) -> None:
    """The any-document property: BASE with each (path, value) mutation applied in turn parses to a
    config or to diagnostics, never an exception. A mutation whose path an earlier one removed or
    replaced is passed over."""
    document = BASE
    for path, value in mutations:
        try:
            document = mutated(document, path, value)
        except (KeyError, IndexError, TypeError):
            pass
    config, diags = parse_scenario(document)
    assert (config is None and diags and all(isinstance(d, str) for d in diags)) or (
        isinstance(config, ScenarioConfig) and diags == []
    ), (config, diags)


# Named (delay_us, ops) cases for `check_stream_ops`, beside the recorded ones.
STREAM_CASES = {
    "two-applies-then-a-step-across-the-deadline": (
        DELAY_US, [("apply", "HR"), ("apply", "LR"), ("step", 1, 1), ("apply", "HR"), ("step", 1, 0)],
    ),
    "two-applies-then-a-step-with-no-delay": (
        0, [("apply", "HR"), ("apply", "LR"), ("step", 0, 5), ("apply", "HR"), ("apply", "MR"), ("step", 0, 1)],
    ),
    # a switch-back mid-flight, a re-target to a third config, and a run edge inside the switch
    "switch-back-re-target-and-run-edge-mid-switch": (
        DELAY_US,
        [("apply", "HR"), ("step", 0, 9), ("apply", "LR"), ("finalize",), ("apply", "MR"), ("step", 1, -1),
         ("step", 0, 1), ("apply", "LR"), ("apply", "LR"), ("step", 2, 0), ("finalize",)],
    ),
    "switch-back-on-a-one-microsecond-delay": (
        1, [("apply", "HR"), ("step", 0, 1), ("apply", "LR"), ("apply", "HR"), ("step", 0, 2), ("finalize",)],
    ),
    "re-apply-of-the-config-in-flight-then-a-step-across-its-deadline": (
        DELAY_US, [("apply", "HR"), ("step", 0, 5), ("apply", "HR"), ("step", 1, 0)],
    ),
}


def check_stream_ops(example) -> None:
    """The pending-model property: a (delay_us, ops) sequence of applies, steps and run ends keeps
    StreamState's target, active config and ledger equal to the spec's PendingModel after every op.
    A step `("step", k, offset)` lasts k delays plus the offset, at least 1 us; a run end with no
    time in its window is passed over."""
    delay_us, ops = example
    stream = StreamState("LR", delay_us)
    model = PendingModel("LR", delay_us)
    window_us = run_index = 0
    for op in ops:
        if op[0] == "apply":
            stream.apply_config(op[1])
            model.apply(op[1])
        elif op[0] == "step":
            dt_us = max(1, op[1] * delay_us + op[2])
            assert stream.step(dt_us) == model.step(dt_us), op
            window_us += dt_us
        elif window_us:
            assert stream.finalize_run(run_index, window_us) == model.finalize(run_index, window_us)
            window_us = 0
            run_index += 1
        assert (stream.target, stream.active) == (model.committed(), model.active), op
        assert (stream.streamed_us, stream.reconfig_us, stream.switches) == (
            model.streamed_us, model.reconfig_us, model.switches
        ), op


def check_trace(example) -> None:
    """The trace property: `generate_trace` is the spec's trace bit for bit, one `Random(seed).gauss`
    call a sample, and a shorter trace of the same shape and seed is a prefix of it, which Engine's
    warmup trace relies on."""
    shape = TraceParams(*(example[key] for key in ("mean", "amplitude", "period", "noise_sd", "step_us")))
    samples, short, seed = example["samples"], example["short"], example["seed"]
    uploads = generate_trace(shape, samples * shape.step_us, seed).uploads
    # repr tells 0.0 from -0.0, which == does not
    assert list(map(repr, uploads)) == list(map(repr, trace(shape, samples * shape.step_us, seed)))
    prefix = generate_trace(shape, min(short, samples) * shape.step_us, seed).uploads
    assert prefix == uploads[: len(prefix)]


def check_probe_noise(example) -> None:
    """The probe-noise property: a healthy probe's reading at an instant on the monitoring grid, up
    to 1e13 us, is the spec's bit for bit: one gauss call of a fresh Random keyed on (seed, t_us),
    clamped at 0."""
    seed, grid_us, ticks, upload, sd = (example[key] for key in ("seed", "grid_us", "ticks", "upload", "sd"))
    t_us = ticks // grid_us * grid_us
    one_sample = BandwidthTrace(uploads=(upload,), step_us=10**13 + 1)
    probed_t_us, probed, ok = probe(one_sample, FaultSchedule.of(), t_us, probe_noise_sd=sd, seed=seed)
    assert (probed_t_us, ok) == (t_us, True)
    # repr tells 0.0 from -0.0, which == does not
    assert repr(probed) == repr(noisy_upload(upload, seed, t_us, sd))


# Named values for `check_rounding`, beside the recorded ones: the five display cases, then
# negatives, subnormals and values whose repr has an exponent.
ROUNDING_CASES = {
    "0.745-displays-0.75": 0.745,
    "0.5941-displays-0.59": 0.5941,
    "0.775-displays-0.78": 0.775,
    "0.9118-displays-0.91": 0.9118,
    "minus-0.005-displays-minus-0.01": -0.005,
    "negative-zero": -0.0,
    "minus-0.0049-displays-minus-0.00": -0.0049,
    "minus-2.675-whose-binary-value-is-nearer-zero": -2.675,
    "smallest-subnormal": 5e-324,
    "negative-smallest-normal": -2.2250738585072014e-308,
    "small-exponent": 1.5e-05,
    "negative-large-exponent": -1.2345e20,
    "large-exponent": 1e16,
}


def check_rounding(value) -> None:
    """The display rule: `round_half_up` is the spec's cell, the value's repr quantized half up at
    two decimals, by repr (which tells -0.0 from 0.0)."""
    assert repr(round_half_up(value)) == repr(float(cell(value))), value


def main() -> int:
    try:
        counts = check_documents([*named_documents().items(), *spec_corpus.read("bounded")])
        counts += check_documents(spec_corpus.read("own_space"))
        means = check_recorded(check_mean, spec_corpus.read("fmean"))
        mutations = check_recorded(check_mutations, spec_corpus.read("mutations"))
        ops = check_recorded(check_stream_ops, [*STREAM_CASES.items(), *spec_corpus.read("stream_ops")])
        traces = check_recorded(check_trace, spec_corpus.read("trace"))
        readings = check_recorded(check_probe_noise, spec_corpus.read("probe_noise"))
        rounded = check_recorded(check_rounding, [*ROUNDING_CASES.items(), *spec_corpus.read("rounding")])
        digests = check_pins()
    except Exception as failure:
        first_line = str(failure).partition("\n")[0]
        print("spec check failed:", *getattr(failure, "__notes__", ()), f"{type(failure).__name__}: {first_line}")
        return 1
    documents = counts["matched"] + counts["refused"] + counts["invalid"]
    relations = "; ".join(f"{name} held on {counts[f'{name} held']}, skipped {counts[f'{name} skipped']}" for name in RELATIONS)
    ops, rounded = ops - len(STREAM_CASES), rounded - len(ROUNDING_CASES)
    recorded = means + mutations + ops + traces + readings + rounded
    print(
        f"spec check passed on Python {sys.version.split()[0]}: {documents} documents, "
        f"{counts['matched']} matched the spec, {counts['refused']} refused alike, {counts['invalid']} invalid; "
        f"{relations}; {recorded} recorded property examples held ({means} fmean lists, {mutations} mutated "
        f"documents, {ops} stream op sequences, {traces} traces, {readings} probe readings, {rounded} rounded "
        f"values) and {len(STREAM_CASES) + len(ROUNDING_CASES)} named cases ({len(STREAM_CASES)} stream, "
        f"{len(ROUNDING_CASES)} rounding); {digests} pinned digests matched"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
