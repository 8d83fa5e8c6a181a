"""An executable spec: the four artifacts of one experiment, built plainly.

`reference_artifacts(config)` reads a parsed `ScenarioConfig` and builds
`events.jsonl`, `runs.csv`, `report.csv` and `report.txt` from README.md's
rules alone: the trace, the threshold, each probe, the monitor, analyze,
plan, register, execute and step stages, the stream's ledger and every
writer are written out here for clarity, not speed. It uses no package
code past the parser, so the engine's bytes can be checked against it.

Each rule the package's units also answer for is one function or class
here: `trace`, `noisy_upload`, `warmup_samples`, `PendingModel` (the switch
rules), `cell` (display rounding), `scores` and `qp`, and `selection`. The
unit properties import them, so one copy of a rule serves both the unit
tests and the whole-loop spec.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from decimal import ROUND_HALF_UP, Decimal

from adastream.scenario import ScenarioConfig

# (w_rate, w_frame) per quality preset and (w_t, w_q) per performance preset, in report order
QUALITY_PRESETS = {"5r5q": (0.5, 0.5), "9r1q": (0.9, 0.1), "1r9q": (0.1, 0.9)}
PERFORMANCE_PRESETS = {"p1": (0.5, 0.5), "p2": (0.9, 0.1), "p3": (0.1, 0.9)}

# json.dumps(value, separators=(",", ":")), with its encoder built once
dumps = json.JSONEncoder(separators=(",", ":")).encode


class Refused(Exception):
    """The experiment cannot finish; the message is part of the engine's error. A loop
    that ran to its end hands back its events.jsonl text, its events and its records."""

    def __init__(self, message: str, events_text=None, events=None, records=None):
        super().__init__(message)
        self.events_text, self.events, self.records = events_text, events, records


def trace(shape, duration_us: int, seed) -> list[float]:
    """The upload at each sample instant in [0, duration_us) of a `TraceParams` shape, one per
    step: the curve plus one `Random(seed).gauss` call a sample, clamped at 0. Sample i covers
    [i * step, (i + 1) * step)."""
    mean, amplitude, period, noise_sd, step_us = shape
    rng = random.Random(seed)
    uploads = []
    for t_us in range(0, duration_us, step_us):
        curve = mean + amplitude * math.sin(2 * math.pi * (t_us / 1e6) / period)
        uploads.append(max(0.0, curve + rng.gauss(0.0, noise_sd)))
    return uploads


def noisy_upload(upload: float, seed, t_us: int, sd: float) -> float:
    """The probe's noisy reading at t_us: one gauss call of a fresh Random keyed on (seed, t_us),
    clamped at 0."""
    return max(0.0, upload + random.Random(f"{seed}:{t_us}").gauss(0.0, sd))


def faulted(config: ScenarioConfig, kind: str, t_us: int) -> bool:
    starts, ends = config.faults.by_kind.get(kind, ((), ()))
    for start, end in zip(starts, ends):
        if start <= t_us < end:
            return True
    return False


def warmup_samples(uploads: list[float], step_us: int, start_us: int, end_us: int) -> list[float]:
    """The samples at instants in [start_us, end_us): the warmup window."""
    return [u for i, u in enumerate(uploads) if start_us <= i * step_us < end_us]


def threshold_of(config: ScenarioConfig) -> float:
    """The mean upload over the warmup window of the warmup trace. A trace's samples do not
    depend on its length, so it runs one step past the window's end, and the window, not the
    trace's length, decides which samples the mean takes."""
    start_us, end_us = round(config.warmup.start_s * 1e6), round(config.warmup.end_s * 1e6)
    warmup = trace(config.trace, end_us + config.trace.step_us, f"{config.seed}/warmup")
    return statistics.fmean(warmup_samples(warmup, config.trace.step_us, start_us, end_us))


class PendingModel:
    """The stream as a `pending` config, None when no switch is in flight: the spec's
    stream, written apart from the package's `StreamState`, and the switch rules' one home."""

    def __init__(self, initial: str, delay_us: int):
        self.delay_us = delay_us
        self.active = initial
        self.pending: str | None = None
        self.remaining_us = 0
        self.streamed_us: dict[str, int] = {}
        self.reconfig_us = 0
        self.switches = 0

    def committed(self) -> str:
        """The config last applied: the one in flight, else the active one."""
        return self.active if self.pending is None else self.pending

    def apply(self, name: str) -> None:
        if self.pending is not None:
            self.pending = name  # retargets the switch in flight, same delay
        elif name != self.active:
            self.pending = name
            self.remaining_us = self.delay_us

    def step(self, dt_us: int) -> tuple[int, int, str]:
        """A switch drains its delay, even 0, then the stream runs at `active`:
        (reconfiguring, streaming, active)."""
        used = 0
        if self.pending is not None:
            used = min(self.remaining_us, dt_us)
            self.remaining_us -= used
            self.reconfig_us += used
            if self.remaining_us == 0:
                if self.pending != self.active:
                    self.switches += 1
                self.active, self.pending = self.pending, None
        streamed = dt_us - used
        if streamed:
            self.streamed_us[self.active] = self.streamed_us.get(self.active, 0) + streamed
        return used, streamed, self.active

    def finalize(self, run_index: int, duration_us: int) -> tuple:
        """The run's record, in `RunRecord`'s field order; the next run's ledger opens empty."""
        record = (run_index, duration_us, self.reconfig_us, self.switches, self.streamed_us)
        self.streamed_us, self.reconfig_us, self.switches = {}, 0, 0
        return record


def run_loop(config: ScenarioConfig, threshold: float) -> tuple[list[dict], list[tuple]]:
    """Every tick's events, and each run's record from `PendingModel.finalize`."""
    configs = config.space.configs
    highest = max(configs, key=lambda c: c.frame_rate).name  # ties: the first in order
    lowest = min(configs, key=lambda c: c.frame_rate).name
    uploads = trace(config.trace, config.runs * config.run_duration_us, f"{config.seed}/trace")
    dt = config.monitor_interval_us
    overrides = list(config.user_overrides)  # sorted by at_us
    events, records = [], []

    def emit(event, **fields):  # at the current run and t_us
        events.append({"seq": len(events), "run": run, "t_us": t_us, "event": event, **fields})

    last_kind = None  # the analyzer's previous classification
    latest = None  # the registry's latest strategy, (id, target)
    next_id = 1
    stream = PendingModel(config.initial_config, config.reconfig_delay_us)
    for run in range(config.runs):
        run_start = run * config.run_duration_us
        for t_us in range(run_start, run_start + config.run_duration_us, dt):
            # monitor
            ok = not faulted(config, "probe-unavailable", t_us)
            upload = uploads[t_us // config.trace.step_us] if ok else 0.0
            if ok and config.probe_noise_sd_mbps > 0:
                upload = noisy_upload(upload, f"{config.seed}/probe", t_us, config.probe_noise_sd_mbps)
            emit("monitor", upload_mbps=upload, ok=ok)

            # analyze: inside the hysteresis band the previous kind holds
            band = config.hysteresis_mbps
            if not ok:
                condition = "unknown"
            elif upload >= threshold + band:
                condition = "above-threshold"
            elif upload < threshold - band:
                condition = "below-threshold"
            elif last_kind is not None:
                condition = last_kind
            else:
                condition = "above-threshold" if upload >= threshold else "below-threshold"
            if ok:
                last_kind = condition
            emit("analyze", condition=condition)

            # plan and register: the last override due wins over the threshold
            target = reason = None
            while overrides and overrides[0].at_us <= t_us:
                target, reason = overrides.pop(0).target, "user-config"
            if reason is None and config.scenario == "adaptive":
                target = {"above-threshold": highest, "below-threshold": lowest}.get(condition)
                reason = condition
            registry_up = not faulted(config, "registry-unavailable", t_us)
            if target is None or target == stream.committed():
                emit("plan", action="keep")
            else:
                emit("plan", action="strategy", target=target, reason=reason)
                emit("register", ok=registry_up, strategy_id=next_id if registry_up else None, target=target)
                if registry_up:
                    latest = (next_id, target)
                    next_id += 1

            # execute: with the registry down, hold the last command
            if not registry_up:
                emit("execute", source="fallback", strategy_id=None, target=stream.committed(), applied=False)
            elif latest is None or latest[1] == stream.committed():
                strategy_id, target = latest or (None, None)
                emit("execute", source="registry", strategy_id=strategy_id, target=target, applied=False)
            else:
                strategy_id, target = latest
                stream.apply(target)
                emit("execute", source="registry", strategy_id=strategy_id, target=target, applied=True)

            # step: the stream spends the tick by the switch rules
            spent, streamed, active = stream.step(dt)
            segments = [[active, streamed]] if streamed else []
            emit("step", dt_us=dt, reconfig_us=spent, segments=segments, active=active)
        records.append(stream.finalize(run, config.run_duration_us))
    return events, records


def seconds(us: int) -> str:
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def cell(value: float) -> str:
    """A report cell: the value rounded half up at two decimals, from its repr."""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def scores(configs) -> dict[str, dict[str, float]]:
    """Each quality preset's score of each config: its frame rate as a share of the highest and
    its quality score, weighted."""
    max_rate = max(c.frame_rate for c in configs)
    return {
        preset: {c.name: w_rate * (c.frame_rate / max_rate) + w_frame * c.quality_score for c in configs}
        for preset, (w_rate, w_frame) in QUALITY_PRESETS.items()
    }


def qp(record, score: dict[str, float]) -> float:
    """A run's qp: its configs' scores weighted by their streamed time, over its streamed time
    (its duration less its reconfiguration). `record` is in `RunRecord`'s field order."""
    _, duration_us, reconfig_us, _, streamed = record
    return sum(us * score[name] for name, us in streamed.items()) / (duration_us - reconfig_us)


def selection(names, records) -> dict[str, tuple[float, float]]:
    """Each config's share of the runs it dominates, by streamed time with ties to the first in
    `names`, and its share of all streamed time."""
    dominant = [max(names, key=lambda name: streamed.get(name, 0)) for *_, streamed in records]
    streamed_at = {name: sum(streamed.get(name, 0) for *_, streamed in records) for name in names}
    total = sum(streamed_at.values()) or 1
    return {name: (dominant.count(name) / len(records), streamed_at[name] / total) for name in names}


def reference_artifacts(config: ScenarioConfig) -> tuple[dict[str, str], list[dict]]:
    """{artifact name: its text}, and the events as dicts; raises Refused where the
    engine refuses the experiment."""
    threshold = threshold_of(config)
    if threshold <= 0:
        raise Refused("threshold of 0 Mbps")
    events, records = run_loop(config, threshold)
    # All the events in one encode call, as one JSON array, cut into lines at each boundary:
    # an event's encoding holds no raw newline, and `{"seq":` opens only an event, so each
    # `},{"seq":` joins two events. One call per event took twice as long.
    events_text = dumps(events)[1:-1].replace('},{"seq":', '}\n{"seq":') + "\n"
    duration = config.run_duration_us
    for run, _, reconfig, _, _ in records:
        if reconfig == duration:
            raise Refused(f"run {run} streamed nothing", events_text, events, records)

    # per-run tp and qp, their means, and the weighted p values
    configs = config.space.configs
    score_of = scores(configs)
    tp = statistics.fmean(1.0 - reconfig / duration for _, _, reconfig, _, _ in records)
    grid = {metric: {} for metric in ("tp", "qp", *PERFORMANCE_PRESETS)}
    for preset, score in score_of.items():
        grid["tp"][preset] = tp
        grid["qp"][preset] = statistics.fmean(qp(record, score) for record in records)
        for p_name, (w_t, w_q) in PERFORMANCE_PRESETS.items():
            grid[p_name][preset] = w_t * tp + w_q * grid["qp"][preset]

    names = [c.name for c in configs]
    mix = selection(names, records)
    notes = [f"threshold_mbps: {threshold:.6f}"]
    for name, (runs_share, seconds_share) in mix.items():
        notes.append(
            f"selection {name}: {100 * runs_share:.1f}% of runs (dominant), "
            f"{100 * seconds_share:.1f}% of streamed seconds"
        )
    if config.scenario == "adaptive":
        for preset, score in score_of.items():
            model = sum(seconds_share * score[name] for name, (_, seconds_share) in mix.items())
            notes.append(f"qp {preset}: mix-model {model:.4f}, measured {grid['qp'][preset]:.4f}")

    columns = ["run", "scenario", "duration_s", "reconfig_s", "switches", *(f"seconds_{n}" for n in names)]
    runs_csv = [",".join(columns)]
    for run, _, reconfig, switches, streamed in records:
        cells = [str(run), config.scenario, seconds(duration), seconds(reconfig), str(switches)]
        runs_csv.append(",".join(cells + [seconds(streamed.get(name, 0)) for name in names]))
    report_csv = [",".join(["metric", *QUALITY_PRESETS])]
    report_csv += [",".join([metric, *map(cell, row.values())]) for metric, row in grid.items()]
    report_txt = [f"scenario: {config.scenario}", f"runs:     {config.runs}", *notes, ""]
    report_txt += ["metric".ljust(8) + "".join(preset.rjust(8) for preset in QUALITY_PRESETS)]
    for metric, row in grid.items():
        report_txt.append(metric.ljust(8) + "".join(cell(v).rjust(8) for v in row.values()))
    texts = {"runs.csv": runs_csv, "report.csv": report_csv, "report.txt": report_txt}
    texts = {name: "\n".join(lines) + "\n" for name, lines in texts.items()}
    return {"events.jsonl": events_text, **texts}, events
