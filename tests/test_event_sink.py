"""The event sink: per-kind JSONL encoding, crash safety, and flat memory."""

from __future__ import annotations

import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adastream import experiment
from adastream.experiment import JsonlFileSink, parse_runs_csv, run_experiment
from adastream.mapek import Engine
from adastream.scenario import load_scenario, parse_scenario
from adastream.stream import StreamState

from conftest import bundled_config_path

# Quote, backslash, control characters, and non-ASCII (BMP and astral); no
# ',' or line break, which a config name may not hold.
NAME_CHARS = st.sampled_from(list('"\\\x00\x01\x1f\x7f\t/é€😀ab'))


@st.composite
def scenario_docs(draw):
    names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=5), min_size=1, max_size=3, unique=True))
    space = [
        {
            "name": name,
            "frame_rate": draw(st.integers(1, 60)),
            "scale_w": 320,
            "scale_h": 240,
            "quality_score": draw(st.sampled_from([0.0, 0.2, 0.99, 1.0])),
        }
        for name in names
    ]
    adaptive = draw(st.booleans())
    runs = draw(st.integers(1, 3))
    run_duration_s = draw(st.sampled_from([4.0, 6.0, 10.0]))
    total_s = runs * run_duration_s
    faults = []
    for kind in ("probe-unavailable", "registry-unavailable"):
        cursor = 0.0
        for _ in range(draw(st.integers(0, 2))):
            start = cursor + draw(st.integers(0, 4))
            end = start + draw(st.integers(1, 5))
            faults.append({"kind": kind, "start_s": start, "end_s": end})
            cursor = end
    overrides = []
    if adaptive:
        overrides = [
            {"at_s": draw(st.integers(0, int(total_s))), "target": draw(st.sampled_from(names))}
            for _ in range(draw(st.integers(0, 3)))
        ]
    return {
        "schema_version": 1,
        "scenario": "adaptive" if adaptive else f"static-{draw(st.sampled_from(names))}",
        "runs": runs,
        "run_duration_s": run_duration_s,
        "monitor_interval_s": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "reconfig_delay_s": draw(st.sampled_from([0.0, 0.5, 2.7])),
        # amplitudes above the mean clamp the trace to 0 Mbps for part of each period
        "trace": {
            "mean_mbps": draw(st.sampled_from([0.5, 2.0, 5.0])),
            "amplitude_mbps": draw(st.sampled_from([0.0, 3.0, 6.0])),
            "period_s": draw(st.sampled_from([3.0, 7.0])),
            "noise_sd_mbps": draw(st.sampled_from([0.0, 0.3])),
        },
        "probe_noise_sd_mbps": draw(st.sampled_from([0.0, 0.5])),
        "warmup": {"duration_s": 21.0, "start_s": 0.0, "end_s": 21.0},
        "faults": faults,
        "adaptation_space": space,
        "hysteresis_mbps": draw(st.sampled_from([0.0, 0.4])),
        "user_overrides": overrides,
        "seed": draw(st.integers(0, 2**31)),
    }


# Each line's keys after seq, run, t_us, event, in line order, by kind; a
# plan line's by its action.
LINE_KEYS = {
    "monitor": ("upload_mbps", "ok"),
    "analyze": ("condition",),
    "plan keep": ("action",),
    "plan strategy": ("action", "target", "reason"),
    "register": ("ok", "strategy_id", "target"),
    "execute": ("source", "strategy_id", "target", "applied"),
    "step": ("dt_us", "reconfig_us", "segments", "active"),
}
TICK_SHAPE = re.compile(r"(monitor,analyze,(plan keep|plan strategy,register),execute,step,)*")


def parse_checked_lines(config, text: str) -> list[dict]:
    """Parse events.jsonl text, checking each line's bytes, keys and names; return the events."""
    names = set(config.space.names) | {None}
    events = []
    kinds = []
    for line in text.splitlines():
        event = json.loads(line)
        assert line == json.dumps(event, separators=(",", ":"))
        kind = event["event"]
        if kind == "plan":
            kind = f"plan {event['action']}"
        assert list(event) == ["seq", "run", "t_us", "event", *LINE_KEYS[kind]], line
        named = [event.get("target"), event.get("active"), *(n for n, _ in event.get("segments", []))]
        assert set(named) <= names, line
        events.append(event)
        kinds.append(kind)
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert TICK_SHAPE.fullmatch("".join(f"{kind}," for kind in kinds))
    return events


class RecordingSink(JsonlFileSink):
    """The file sink, also keeping each run's tick records for the reference encoder."""

    def __init__(self, file):
        super().__init__(file)
        self.runs = []

    def write_run(self, run_index, ticks):
        self.runs.append((run_index, ticks))
        super().write_run(run_index, ticks)


def reference_jsonl(runs) -> str:
    """events.jsonl built the plain way: one dict per event, each through json.dumps."""
    lines = []
    for run_index, ticks in runs:
        for (t_us, upload, ok), condition, strategy, outcome, dt_us, stepped in ticks:
            events = [
                {"event": "monitor", "upload_mbps": upload, "ok": ok},
                {"event": "analyze", "condition": condition},
            ]
            if strategy is None:
                events.append({"event": "plan", "action": "keep"})
            else:
                registered = outcome.source == "registry"
                events += [
                    {"event": "plan", "action": "strategy", "target": strategy.target, "reason": strategy.reason},
                    {
                        "event": "register",
                        "ok": registered,
                        "strategy_id": strategy.id if registered else None,
                        "target": strategy.target,
                    },
                ]
            segments = [[stepped.active, stepped.streamed_us]] if stepped.streamed_us else []
            events += [
                {"event": "execute", **outcome._asdict()},
                {
                    "event": "step",
                    "dt_us": dt_us,
                    "reconfig_us": stepped.reconfig_us,
                    "segments": segments,
                    "active": stepped.active,
                },
            ]
            for event in events:
                head = {"seq": len(lines), "run": run_index, "t_us": t_us}
                lines.append(json.dumps(head | event, separators=(",", ":")) + "\n")
    return "".join(lines)


def run_against_reference(config) -> tuple:
    """Run into the file sink, check its text against the reference encoder's; the result and text."""
    file = io.StringIO()
    sink = RecordingSink(file)
    result = Engine(config).run(sink)
    text = file.getvalue()
    assert text == reference_jsonl(sink.runs)
    return result, text


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario_docs())
def test_encoder_lines_are_compact_json_in_documented_key_order(doc):
    config, diags = parse_scenario(doc)
    assert config is not None, diags
    result, text = run_against_reference(config)
    events = parse_checked_lines(config, text)
    assert {e["dt_us"] for e in events if e["event"] == "step"} == {config.monitor_interval_us}
    with tempfile.TemporaryDirectory() as out:
        run_experiment(config, out)
        assert (Path(out) / "events.jsonl").read_bytes() == text.encode("utf-8")
        # the drawn names head runs.csv's columns and come back unchanged
        assert parse_runs_csv(Path(out) / "runs.csv") == (list(result.records), config.space.names)


def test_encoder_matches_json_dumps_on_every_event_shape():
    # one fixed config that surely reaches every branch of the encoder
    doc = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 2,
        "run_duration_s": 10.0,
        # longer than a tick: some steps only reconfigure and stream nothing
        "reconfig_delay_s": 1.5,
        "trace": {"mean_mbps": 0.5, "amplitude_mbps": 6.0, "period_s": 7.0},
        "warmup": {"duration_s": 21.0, "start_s": 0.0, "end_s": 21.0},
        "faults": [
            {"kind": "probe-unavailable", "start_s": 2.0, "end_s": 4.0},
            {"kind": "registry-unavailable", "start_s": 5.0, "end_s": 9.0},
        ],
        "adaptation_space": [
            {"name": 'a"\\\x01é😀', "frame_rate": 30, "scale_w": 1, "scale_h": 1, "quality_score": 1.0},
            {"name": "b\t", "frame_rate": 60, "scale_w": 1, "scale_h": 1, "quality_score": 0.0},
        ],
        # consecutive overrides to different configs: at least one must switch
        "user_overrides": [{"at_s": 12.0, "target": 'a"\\\x01é😀'}, {"at_s": 13.0, "target": "b\t"}],
        "seed": 5,
    }
    config, diags = parse_scenario(doc)
    assert config is not None, diags
    _, text = run_against_reference(config)
    events = parse_checked_lines(config, text)
    kinds = {e["event"] for e in events}
    assert kinds == {"monitor", "analyze", "plan", "register", "execute", "step"}
    assert any(e["event"] == "monitor" and e["upload_mbps"] == 0.0 and e["ok"] for e in events)
    assert any(e["event"] == "register" and not e["ok"] and e["strategy_id"] is None for e in events)
    assert any(e["event"] == "execute" and e["source"] == "fallback" for e in events)
    assert any(e["event"] == "plan" and e.get("reason") == "user-config" for e in events)
    assert any(e["event"] == "step" and e["segments"] == [] for e in events)


def test_crash_mid_loop_keeps_previous_events_file(tmp_path, scenario_factory, monkeypatch):
    config = scenario_factory(runs=3)
    previous = b'{"seq":0,"previous":true}\n'
    (tmp_path / "events.jsonl").write_bytes(previous)
    original_step = StreamState.step
    calls = 0

    def failing_step(self, dt_us):
        nonlocal calls
        calls += 1
        if calls == 45:  # inside the second run, after the first was streamed
            raise RuntimeError("simulated crash")
        return original_step(self, dt_us)

    monkeypatch.setattr(StreamState, "step", failing_step)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_experiment(config, tmp_path)
    assert (tmp_path / "events.jsonl").read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["events.jsonl"]


def test_crash_in_report_stage_keeps_previous_artifacts(tmp_path, scenario_factory, monkeypatch):
    previous = {
        name: f"previous {name}\n".encode()
        for name in ("events.jsonl", "runs.csv", "report.csv", "report.txt")
    }
    for name, data in previous.items():
        (tmp_path / name).write_bytes(data)

    def failing_render(*args, **kwargs):
        # the other three partials are on disk by now
        assert sorted(p.name for p in tmp_path.glob("*.partial")) == [
            "events.jsonl.partial", "report.csv.partial", "runs.csv.partial",
        ]
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(experiment, "render_report_text", failing_render)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_experiment(scenario_factory(runs=2), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == previous


def test_event_memory_does_not_grow_with_run_count(tmp_path):
    """Adding runs adds far less memory than their events would take.

    The trace (one float per trace step) and the run records still grow
    with the run count, which moves the peak by about 1 KB per 30-s run of
    this config; the event log, about 16 KB of JSON lines per run, must not
    be held.
    """
    base = load_scenario(bundled_config_path("table3-adaptive"))
    peaks = {}
    for runs in (100, 400):
        out = tmp_path / str(runs)
        tracemalloc.start()
        try:
            run_experiment(base._replace(runs=runs), out)
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    events_bytes_per_run = (tmp_path / "400" / "events.jsonl").stat().st_size / 400
    growth_per_run = (peaks[400] - peaks[100]) / 300
    assert growth_per_run < events_bytes_per_run / 4, (peaks, events_bytes_per_run)
