"""The spec check, standard library only: `check_document` holds `run_experiment` to the executable
spec in reference_loop.py, and `check_pins` holds each default-seed benchmark workload and the
zero-delay config to their pinned digests. The suite calls both under pytest; run as a script, on
any Python, it checks the named documents, both corpus files and every pin, and prints one line of
counts, or one line naming the first document or pin that fails, and exits 1."""

from __future__ import annotations

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

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # a checkout, with no install
    sys.path.insert(0, str(ROOT / "src"))

import adastream  # noqa: E402
from adastream.errors import SimulationError  # noqa: E402
from adastream.experiment import JsonlFileSink, compare, parse_runs_csv, render_comparison, run_experiment  # noqa: E402
from adastream.experiment import runs_csv_text  # noqa: E402
from adastream.kb import AdaptationStrategy, RunRecord  # noqa: E402
from adastream.mapek import Engine  # noqa: E402
from adastream.metrics import RunFold, _quality_at, quality_scores  # noqa: E402
from adastream.scenario import parse_scenario  # noqa: E402

import spec_corpus  # noqa: E402
from reference_loop import Refused, qp, reference_artifacts  # noqa: E402

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


def check_run_split(config, document, events_text: str, records) -> str:
    """The run-split relation: runs are measurement windows, not adaptation boundaries, so the
    same total time cut as one run writes the same events.jsonl once each line's run field is
    dropped, and the same ledger sums. It is skipped where the parser refuses the twin, whose
    one run may hold more ticks than a run may."""
    twin, _ = parse_scenario({**document, "runs": 1, "run_duration_s": config.total_duration_us / 1e6})
    if twin is None:
        return "run split skipped"
    assert twin.run_duration_us == config.total_duration_us
    twin_records, twin_text = run_into_jsonl(Engine(twin))
    assert_same_text("one-run twin's events.jsonl, run fields dropped", without_runs(twin_text), without_runs(events_text))
    assert ledger_sums(twin_records) == ledger_sums(records), "ledger sums of the one-run twin"
    return "run split held"


def check_document(document, split: bool = False) -> tuple[str, ...]:
    """What validate accepts, run finishes: its four artifacts are byte for byte
    the executable spec's, its runs.csv reads back, and its events keep the
    invariants of criteria 6 and 7. Where the experiment is refused after its
    loop ran to the end, the engine's events are the spec's, byte for byte.
    With `split`, a document of two or more runs also keeps the run-split relation.
    The outcomes, for `check_documents` to count."""
    config, _ = parse_scenario(document)
    if config is None:
        return ("invalid",)
    split = split and config.runs >= 2
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
            return ("refused", "run split skipped") if split else ("refused",)
        run_experiment(config, out)
        for name, text in expected.items():
            assert_same_text(name, (Path(out) / name).read_bytes().decode("utf-8"), text)
        scenario, names, records = parsed_runs(Path(out) / "runs.csv")
    # runs.csv reads back to the config's scenario and names, and its rows render again to the file
    rows = "".join(runs_csv_text(record, scenario, names) for record in records)
    assert (scenario, names, rows) == (config.scenario, config.space.names, expected["runs.csv"].partition("\n")[2])
    assert_loop_invariants(config, records, events)
    if split:
        return ("matched", check_run_split(config, document, expected["events.jsonl"], records))
    return ("matched",)


# `check_documents` checks the run-split relation on every SPLIT_STRIDE-th document it is given.
SPLIT_STRIDE = 3


def check_documents(documents) -> Counter:
    """`check_document` on each (where, document), the run split on every SPLIT_STRIDE-th:
    the count of each outcome. A failure names the document's `where`.

    The cyclic collector is off meanwhile: reference counting frees the spec's and the
    engine's event dicts, and each collection would walk every live one."""
    counts = Counter()
    gc.disable()
    try:
        for index, (where, document) in enumerate(documents):
            try:
                counts.update(check_document(document, split=index % SPLIT_STRIDE == 0))
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


def main() -> int:
    try:
        counts = check_documents([*named_documents().items(), *spec_corpus.read("bounded")])
        counts += check_documents(spec_corpus.read("own_space"))
        digests = check_pins()
    except Exception as failure:
        first_line = str(failure).partition("\n")[0]
        print("spec check failed:", *getattr(failure, "__notes__", ()), f"{type(failure).__name__}: {first_line}")
        return 1
    documents = counts["matched"] + counts["refused"] + counts["invalid"]
    print(
        f"spec check passed on Python {sys.version.split()[0]}: {documents} documents, "
        f"{counts['matched']} matched the spec, {counts['refused']} refused alike, {counts['invalid']} invalid; "
        f"run split held on {counts['run split held']}, skipped {counts['run split skipped']}; {digests} pinned digests matched"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
