"""The event sink: per-kind JSONL encoding, crash safety, and flat memory."""

from __future__ import annotations

import json
import re
import tracemalloc

import pytest

from adastream import experiment
from adastream.experiment import run_experiment
from adastream.scenario import parse_scenario
from adastream.stream import StreamState

from conftest import make_scenario
from spec_check import bundled_config_path
from reference_loop import reference_artifacts


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


def test_encoder_matches_json_dumps_on_every_event_shape(tmp_path):
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
    run_experiment(config, tmp_path)
    expected, _ = reference_artifacts(config)
    assert {name: (tmp_path / name).read_bytes().decode("utf-8") for name in expected} == expected
    events = parse_checked_lines(config, expected["events.jsonl"])
    kinds = {e["event"] for e in events}
    assert kinds == {"monitor", "analyze", "plan", "register", "execute", "step"}
    assert any(e["event"] == "monitor" and e["upload_mbps"] == 0.0 and e["ok"] for e in events)
    assert any(e["event"] == "register" and not e["ok"] and e["strategy_id"] is None for e in events)
    assert any(e["event"] == "execute" and e["source"] == "fallback" for e in events)
    assert any(e["event"] == "plan" and e.get("reason") == "user-config" for e in events)
    assert any(e["event"] == "step" and e["segments"] == [] for e in events)


def test_crash_mid_loop_keeps_previous_events_file(tmp_path, monkeypatch):
    config = make_scenario(runs=3)
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


def test_crash_in_report_stage_keeps_previous_artifacts(tmp_path, monkeypatch):
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
        run_experiment(make_scenario(runs=2), tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == previous


def traced_peak(config, out_dir) -> int:
    """The tracemalloc peak of `run_experiment`, in bytes."""
    tracemalloc.start()
    try:
        run_experiment(config, out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_event_memory_does_not_grow_with_run_count(tmp_path):
    """Adding runs adds almost no memory: no run's events or record is held.

    One-tick runs make the per-run cost stand out: each run writes several
    hundred bytes of JSON lines and closes a record of about 330 B. The
    trace, the one thing that still grows with the run count, adds one
    float, about 32 B, per run of this config.
    """
    doc = json.loads(bundled_config_path("table3-adaptive").read_text(encoding="utf-8"))
    doc.update(run_duration_s=1.0, reconfig_delay_s=0.5)
    peaks = {}
    for runs in (100, 2_000):
        config, diags = parse_scenario({**doc, "runs": runs})
        assert config is not None, diags
        peaks[runs] = traced_peak(config, tmp_path / str(runs))
    growth_per_run = (peaks[2_000] - peaks[100]) / 1_900
    assert growth_per_run < 128, peaks


def test_one_long_run_costs_under_2_kb_a_tick(tmp_path):
    """A run's tick records and events text are held until the run ends.

    The per-run tick limit in the parser is sized by this cost: 1,000,000
    ticks at under 2 KB each is at most about 2 GB for the longest run.
    The same 10,000 ticks as 100 short runs hold almost nothing.
    """
    doc = json.loads(bundled_config_path("table3-adaptive").read_text(encoding="utf-8"))
    peaks = {}
    for runs, run_duration_s in ((100, 100.0), (1, 10_000.0)):
        config, diags = parse_scenario({**doc, "runs": runs, "run_duration_s": run_duration_s})
        assert config is not None, diags
        peaks[runs] = traced_peak(config, tmp_path / str(runs))
    per_tick = (peaks[1] - peaks[100]) / 10_000
    assert per_tick < 2_048, peaks
