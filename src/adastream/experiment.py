"""Experiment runner: drive one scenario end-to-end and write its artifacts.

Per experiment the out directory receives:

    runs.csv     per-run ledger (6-decimal fixed seconds)
    events.jsonl one JSON object per control-loop event, written run by run
    report.csv   metric x quality-preset grid, 2-decimal cells
    report.txt   the same grid, aligned, plus threshold and selection lines

Every byte of these artifacts is a pure function of (config, seed).
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .errors import SimulationError
from .kb import RunRecord
from .mapek import EngineResult, run_loop
from .metrics import (
    GRID_WIDTH,
    QUALITY_PRESETS,
    REPORT_METRICS,
    PerformanceReport,
    aggregate,
    config_quality_score,
    format_selection,
    grid_row,
    render_report_csv,
    render_report_text,
    selection_fractions,
)
from .scenario import ScenarioConfig
from .units import format_seconds, to_us

logger = logging.getLogger(__name__)

ARTIFACTS = ("events.jsonl", "runs.csv", "report.csv", "report.txt")

RUNS_CSV_FIXED_COLUMNS = ["run", "scenario", "duration_s", "reconfig_s", "switches"]


def runs_csv_text(records: tuple[RunRecord, ...], config_names: tuple[str, ...]) -> str:
    header = RUNS_CSV_FIXED_COLUMNS + [f"seconds_{name}" for name in config_names]
    lines = [",".join(header)]
    for r in records:
        row = [
            str(r.run_index),
            r.scenario,
            format_seconds(r.duration_us),
            format_seconds(r.reconfig_us),
            str(r.switches),
        ]
        row += [format_seconds(r.streamed_us.get(name, 0)) for name in config_names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


_JSON_BOOL = {True: "true", False: "false"}


class QuotedNames(dict):
    """Config name -> its JSON string literal, each quoted once on first use."""

    def __missing__(self, name: str | None) -> str:
        text = self[name] = json.dumps(name)
        return text


def events_jsonl_text(
    run_index: int, first_seq: int, ticks: list[tuple], quoted: QuotedNames
) -> str:
    """One run's events as JSON lines, from the tick records laid out in `mapek`.

    Byte for byte what `json.dumps(event, separators=(",", ":"))` gives
    for each event dict, without building the dicts.
    """
    lines = []
    add = lines.append
    seq = first_seq
    for (
        t_us, upload, ok, condition, planned, registered,
        source, strategy_id, target, applied,
        dt_us, reconfig_us, segments, active,
    ) in ticks:
        tail = f',"run":{run_index},"t_us":{t_us},"event":'
        if planned is None:
            decision = f'{{"seq":{seq + 2}{tail}"plan","action":"keep"}}\n'
            after = seq + 3
        else:
            planned_target, reason = planned
            registered_ok, registered_id, registered_target = registered
            decision = (
                f'{{"seq":{seq + 2}{tail}"plan","action":"strategy",'
                f'"target":{quoted[planned_target]},"reason":"{reason}"}}\n'
                f'{{"seq":{seq + 3}{tail}"register","ok":{_JSON_BOOL[registered_ok]},'
                f'"strategy_id":{"null" if registered_id is None else registered_id},'
                f'"target":{quoted[registered_target]}}}\n'
            )
            after = seq + 4
        segment_text = ",".join([f"[{quoted[name]},{us}]" for name, us in segments])
        # the tick's five or six lines in one string
        add(
            f'{{"seq":{seq}{tail}"monitor","upload_mbps":{upload!r},"ok":{_JSON_BOOL[ok]}}}\n'
            f'{{"seq":{seq + 1}{tail}"analyze","condition":"{condition}"}}\n'
            f"{decision}"
            f'{{"seq":{after}{tail}"execute","source":"{source}",'
            f'"strategy_id":{"null" if strategy_id is None else strategy_id},'
            f'"target":{quoted[target]},"applied":{_JSON_BOOL[applied]}}}\n'
            f'{{"seq":{after + 1}{tail}"step","dt_us":{dt_us},"reconfig_us":{reconfig_us},'
            f'"segments":[{segment_text}],"active":{quoted[active]}}}\n'
        )
        seq = after + 2
    return "".join(lines)


class JsonlFileSink:
    """Writes each run's events to an open text file as soon as the run ends."""

    def __init__(self, file: TextIO):
        self._file = file
        self._quoted = QuotedNames()

    def write_run(self, run_index: int, first_seq: int, ticks: list[tuple]) -> None:
        self._file.write(events_jsonl_text(run_index, first_seq, ticks, self._quoted))


def _read_lines(path: str | Path) -> list[str]:
    """The file's non-empty lines; a file that is not UTF-8 is a SimulationError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SimulationError(f"{path} is not UTF-8 text: {exc}") from exc
    return [line for line in text.splitlines() if line]


def parse_runs_csv(path: str | Path) -> tuple[list[RunRecord], tuple[str, ...]]:
    """Rebuild run records (and the config-name column order) from runs.csv."""
    lines = _read_lines(path)
    if not lines:
        raise SimulationError(f"{path} is empty")
    header = lines[0].split(",")
    if header[: len(RUNS_CSV_FIXED_COLUMNS)] != RUNS_CSV_FIXED_COLUMNS:
        raise SimulationError(f"{path} has unexpected header {header!r}")
    names = tuple(col[len("seconds_"):] for col in header[len(RUNS_CSV_FIXED_COLUMNS):])
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            # zero columns are padding for configs the run never streamed
            streamed = {
                name: us
                for i, name in enumerate(names)
                if (us := to_us(float(cells[len(RUNS_CSV_FIXED_COLUMNS) + i]))) > 0
            }
            records.append(
                RunRecord(
                    run_index=int(cells[0]),
                    scenario=cells[1],
                    duration_us=to_us(float(cells[2])),
                    reconfig_us=to_us(float(cells[3])),
                    switches=int(cells[4]),
                    streamed_us=streamed,
                )
            )
        except (ValueError, IndexError, OverflowError) as exc:
            raise SimulationError(f"{path}:{lineno}: malformed run row: {exc}") from exc
    return records, names


def _selection_lines(result: EngineResult, report: PerformanceReport) -> list[str]:
    selection = selection_fractions(result.records, result.space.names)
    lines = [f"threshold_mbps: {result.threshold_mbps:.6f}"]
    lines += [f"selection {name}: {format_selection(*fracs)}" for name, fracs in selection.items()]
    if result.config.mode == "adaptive":
        # closed-form prediction from the aggregate streamed-time mix, next to
        # the measured mean (mean-of-ratios); they agree only approximately
        for preset, qw in QUALITY_PRESETS.items():
            model = sum(
                sec_frac * config_quality_score(result.space.config(name), result.space, qw)
                for name, (_, sec_frac) in selection.items()
            )
            measured = report.grid["qp"][preset]
            lines.append(f"qp {preset}: mix-model {model:.4f}, measured {measured:.4f}")
    return lines


def run_experiment(config: ScenarioConfig, out_dir: str | Path) -> PerformanceReport:
    """Run the scenario and write runs.csv, events.jsonl, report.csv, report.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Each artifact is written to <name>.partial, and the partials replace
    # the previous artifacts only once all four are complete, so a crash
    # never leaves a truncated file or a mix of old and new artifacts.
    partials = {name: out / f"{name}.partial" for name in ARTIFACTS}
    try:
        with partials["events.jsonl"].open("w", encoding="utf-8", newline="") as f:
            result = run_loop(config, JsonlFileSink(f))
        report = aggregate(result.records, result.space)
        partials["runs.csv"].write_text(
            runs_csv_text(result.records, result.space.names), encoding="utf-8", newline=""
        )
        partials["report.csv"].write_text(render_report_csv(report), encoding="utf-8", newline="")
        partials["report.txt"].write_text(
            render_report_text(report, extra_lines=_selection_lines(result, report)),
            encoding="utf-8",
            newline="",
        )
        for name, partial in partials.items():
            os.replace(partial, out / name)
    except BaseException:
        for partial in partials.values():
            partial.unlink(missing_ok=True)
        raise

    logger.info(
        "scenario %s: %d runs, threshold %.3f Mbps, tp_mean %.4f",
        config.scenario, config.runs, result.threshold_mbps,
        next(iter(report.grid["tp"].values())),  # the same in every preset column
    )
    return report


def parse_report_csv(path: str | Path) -> dict[str, dict[str, float]]:
    """Read a report grid back as {metric: {preset: value}}."""
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("metric,"):
        raise SimulationError(f"{path} is not a report grid")
    presets = lines[0].split(",")[1:]
    grid: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(presets) + 1:
            raise SimulationError(f"{path}:{lineno}: {len(cells) - 1} cells for {len(presets)} presets")
        try:
            grid[cells[0]] = {p: float(v) for p, v in zip(presets, cells[1:])}
        except ValueError as exc:
            raise SimulationError(f"{path}:{lineno}: malformed report cell: {exc}") from exc
    missing = [m for m in REPORT_METRICS if m not in grid]
    if missing:
        raise SimulationError(f"{path} is missing metric rows {missing}")
    return grid


@dataclass
class ScenarioArtifacts:
    """One experiment's outputs, as read back from its out directory."""

    label: str
    grid: dict[str, dict[str, float]]
    records: list[RunRecord]
    config_names: tuple[str, ...]

    @classmethod
    def load(cls, out_dir: str | Path) -> "ScenarioArtifacts":
        out = Path(out_dir)
        grid = parse_report_csv(out / "report.csv")
        records, names = parse_runs_csv(out / "runs.csv")
        if not records:
            raise SimulationError(f"{out} holds no run records")
        return cls(label=records[0].scenario, grid=grid, records=records, config_names=names)


@dataclass
class Comparison:
    artifacts: list[ScenarioArtifacts]
    # (p-metric, preset) -> winning scenario label, or "tie"
    verdicts: dict[tuple[str, str], str]
    # adaptive scenario's per-config (run fraction, seconds fraction)
    adaptive_selection: dict[str, tuple[float, float]]


def compare(artifact_dirs: list[str | Path]) -> Comparison:
    """Side-by-side comparison of scenario outputs (canonically LR, HR, adaptive)."""
    artifacts = [ScenarioArtifacts.load(d) for d in artifact_dirs]
    presets = [list(a.grid["tp"].keys()) for a in artifacts]
    if any(p != presets[0] for p in presets):
        raise SimulationError(f"reports use different quality presets: {presets}")
    if len({a.label for a in artifacts}) != len(artifacts):
        raise SimulationError("comparison needs distinct scenarios")

    verdicts: dict[tuple[str, str], str] = {}
    for metric in ("p1", "p2", "p3"):
        for preset in presets[0]:
            best = max(a.grid[metric][preset] for a in artifacts)
            winners = [a.label for a in artifacts if a.grid[metric][preset] == best]
            verdicts[(metric, preset)] = winners[0] if len(winners) == 1 else "tie"

    adaptive_selection = next(
        (selection_fractions(a.records, a.config_names) for a in artifacts if a.label == "adaptive"),
        {},
    )
    return Comparison(artifacts=artifacts, verdicts=verdicts, adaptive_selection=adaptive_selection)


def render_comparison(cmp: Comparison) -> str:
    presets = list(cmp.artifacts[0].grid["tp"].keys())
    header1 = "metric".ljust(GRID_WIDTH)
    header2 = " " * GRID_WIDTH
    for art in cmp.artifacts:
        header1 += art.label.rjust(GRID_WIDTH * len(presets))
        header2 += "".join(p.rjust(GRID_WIDTH) for p in presets)
    out = [header1, header2]
    for metric in REPORT_METRICS:
        out.append(grid_row(metric, [art.grid[metric][p] for art in cmp.artifacts for p in presets]))
    out += ["", "best scenario per combined-performance cell:"]
    for metric in ("p1", "p2", "p3"):
        cells = "  ".join(f"{p}={cmp.verdicts[(metric, p)]}" for p in presets)
        out.append(f"  {metric}: {cells}")
    if cmp.adaptive_selection:
        out += ["", "adaptive selection:"]
        out += [f"  {name}: {format_selection(*fracs)}" for name, fracs in cmp.adaptive_selection.items()]
    return "\n".join(out) + "\n"
