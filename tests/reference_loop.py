"""An executable spec: the four artifacts of one experiment, built plainly.

`reference_artifacts(config)` reads a parsed `ScenarioConfig` and builds
`events.jsonl`, `runs.csv`, `report.csv` and `report.txt` from README.md's
rules alone: the trace, the threshold, each probe, the monitor, analyze,
plan, register, execute and step stages, the stream's ledger and every
writer are written out here for clarity, not speed. It uses no package
code past the parser, so the engine's bytes can be checked against it.
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

# json.dumps(event, separators=(",", ":")), with its encoder built once
dumps = json.JSONEncoder(separators=(",", ":")).encode


class Refused(Exception):
    """The experiment cannot finish; the message is part of the engine's error."""


def trace(config: ScenarioConfig, duration_us: int, stream: str) -> list[float]:
    """The upload at each sample instant in [0, duration_us), one per step: one gauss call
    a sample, clamped at 0. Sample i covers [i * step, (i + 1) * step)."""
    shape = config.trace
    rng = random.Random(f"{config.seed}/{stream}")
    uploads = []
    for t_us in range(0, duration_us, shape.step_us):
        phase = 2 * math.pi * (t_us / 1e6) / shape.period_s
        curve = shape.mean_mbps + shape.amplitude_mbps * math.sin(phase)
        uploads.append(max(0.0, curve + rng.gauss(0.0, shape.noise_sd_mbps)))
    return uploads


def faulted(config: ScenarioConfig, kind: str, t_us: int) -> bool:
    starts, ends = config.faults.by_kind.get(kind, ((), ()))
    for start, end in zip(starts, ends):
        if start <= t_us < end:
            return True
    return False


def threshold_of(config: ScenarioConfig) -> float:
    """The mean warmup upload over the samples at instants in [start, end)."""
    start_us, end_us = round(config.warmup.start_s * 1e6), round(config.warmup.end_s * 1e6)
    warmup = trace(config, end_us, "warmup")
    return statistics.fmean(u for i, u in enumerate(warmup) if start_us <= i * config.trace.step_us < end_us)


def run_loop(config: ScenarioConfig, threshold: float) -> tuple[list[dict], list[tuple]]:
    """Every tick's events, and each run's (reconfig_us, switches, streamed_us)."""
    configs = config.space.configs
    highest = max(configs, key=lambda c: c.frame_rate).name  # ties: the first in order
    lowest = min(configs, key=lambda c: c.frame_rate).name
    uploads = trace(config, config.runs * config.run_duration_us, "trace")
    dt = config.monitor_interval_us
    overrides = list(config.user_overrides)  # sorted by at_us
    events, ledgers = [], []

    def emit(event, **fields):  # at the current run and t_us
        events.append({"seq": len(events), "run": run, "t_us": t_us, "event": event, **fields})

    last_kind = None  # the analyzer's previous classification
    latest = None  # the registry's latest strategy, (id, target)
    next_id = 1
    last_applied = config.initial_config  # the executor's last command
    active, pending, delay_left_us = config.initial_config, None, 0
    for run in range(config.runs):
        reconfig_us, switches, streamed = 0, 0, {}
        run_start = run * config.run_duration_us
        for t_us in range(run_start, run_start + config.run_duration_us, dt):
            # monitor
            ok = not faulted(config, "probe-unavailable", t_us)
            upload = uploads[t_us // config.trace.step_us] if ok else 0.0
            if ok and config.probe_noise_sd_mbps > 0:
                noise = random.Random(f"{config.seed}/probe:{t_us}").gauss(0.0, config.probe_noise_sd_mbps)
                upload = max(0.0, upload + noise)
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
            if target is None or target == last_applied:
                emit("plan", action="keep")
            else:
                emit("plan", action="strategy", target=target, reason=reason)
                emit("register", ok=registry_up, strategy_id=next_id if registry_up else None, target=target)
                if registry_up:
                    latest = (next_id, target)
                    next_id += 1

            # execute: with the registry down, hold the last command
            if not registry_up:
                emit("execute", source="fallback", strategy_id=None, target=last_applied, applied=False)
            elif latest is None or latest[1] == last_applied:
                strategy_id, target = latest or (None, None)
                emit("execute", source="registry", strategy_id=strategy_id, target=target, applied=False)
            else:
                strategy_id, target = latest
                if pending is not None:
                    pending = target  # retargets the switch in flight, same delay
                elif target != active:
                    pending, delay_left_us = target, config.reconfig_delay_us
                last_applied = target
                emit("execute", source="registry", strategy_id=strategy_id, target=target, applied=True)

            # step: a switch drains its delay, even 0, then the stream runs at `active`
            spent = 0
            if pending is not None:
                spent = min(delay_left_us, dt)
                delay_left_us -= spent
                reconfig_us += spent
                if delay_left_us == 0:
                    if pending != active:
                        switches += 1
                    active, pending = pending, None
            if dt > spent:
                streamed[active] = streamed.get(active, 0) + dt - spent
            segments = [[active, dt - spent]] if dt > spent else []
            emit("step", dt_us=dt, reconfig_us=spent, segments=segments, active=active)
        ledgers.append((reconfig_us, switches, streamed))
    return events, ledgers


def seconds(us: int) -> str:
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def cell(value: float) -> str:
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def reference_artifacts(config: ScenarioConfig) -> tuple[dict[str, str], list[dict]]:
    """{artifact name: its text}, and the events as dicts; raises Refused where the
    engine refuses the experiment."""
    threshold = threshold_of(config)
    if threshold <= 0:
        raise Refused("threshold of 0 Mbps")
    events, ledgers = run_loop(config, threshold)
    duration = config.run_duration_us
    for run, (reconfig, _, _) in enumerate(ledgers):
        if reconfig == duration:
            raise Refused(f"run {run} streamed nothing")

    # per-run tp and qp, their means, and the weighted p values
    configs = config.space.configs
    max_rate = max(c.frame_rate for c in configs)
    scores = {
        preset: {c.name: w_rate * (c.frame_rate / max_rate) + w_frame * c.quality_score for c in configs}
        for preset, (w_rate, w_frame) in QUALITY_PRESETS.items()
    }
    tp = statistics.fmean(1.0 - reconfig / duration for reconfig, _, _ in ledgers)
    grid = {metric: {} for metric in ("tp", "qp", *PERFORMANCE_PRESETS)}
    for preset, score in scores.items():
        qp = statistics.fmean(
            sum(us * score[name] for name, us in streamed.items()) / (duration - reconfig)
            for reconfig, _, streamed in ledgers
        )
        grid["tp"][preset], grid["qp"][preset] = tp, qp
        for p_name, (w_t, w_q) in PERFORMANCE_PRESETS.items():
            grid[p_name][preset] = w_t * tp + w_q * qp

    # selection: each run's dominant config (the first of equals), and the streamed mix
    names = [c.name for c in configs]
    dominant = [max(names, key=lambda name: streamed.get(name, 0)) for _, _, streamed in ledgers]
    streamed_at = {name: sum(streamed.get(name, 0) for _, _, streamed in ledgers) for name in names}
    total = sum(streamed_at.values()) or 1
    mix = {name: (dominant.count(name) / config.runs, streamed_at[name] / total) for name in names}
    notes = [f"threshold_mbps: {threshold:.6f}"]
    for name, (runs_share, seconds_share) in mix.items():
        notes.append(
            f"selection {name}: {100 * runs_share:.1f}% of runs (dominant), "
            f"{100 * seconds_share:.1f}% of streamed seconds"
        )
    if config.scenario == "adaptive":
        for preset, score in scores.items():
            model = sum(seconds_share * score[name] for name, (_, seconds_share) in mix.items())
            notes.append(f"qp {preset}: mix-model {model:.4f}, measured {grid['qp'][preset]:.4f}")

    columns = ["run", "scenario", "duration_s", "reconfig_s", "switches", *(f"seconds_{n}" for n in names)]
    runs_csv = [",".join(columns)]
    for run, (reconfig, switches, streamed) in enumerate(ledgers):
        cells = [str(run), config.scenario, seconds(duration), seconds(reconfig), str(switches)]
        runs_csv.append(",".join(cells + [seconds(streamed.get(name, 0)) for name in names]))
    report_csv = [",".join(["metric", *QUALITY_PRESETS])]
    report_csv += [",".join([metric, *map(cell, row.values())]) for metric, row in grid.items()]
    report_txt = [f"scenario: {config.scenario}", f"runs:     {config.runs}", *notes, ""]
    report_txt += ["metric".ljust(8) + "".join(preset.rjust(8) for preset in QUALITY_PRESETS)]
    for metric, row in grid.items():
        report_txt.append(metric.ljust(8) + "".join(cell(v).rjust(8) for v in row.values()))
    lines = [dumps(event) for event in events]
    texts = {"events.jsonl": lines, "runs.csv": runs_csv, "report.csv": report_csv, "report.txt": report_txt}
    return {name: "\n".join(text) + "\n" for name, text in texts.items()}, events
