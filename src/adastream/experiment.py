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
import math
import os
from pathlib import Path
from typing import NamedTuple, TextIO

from .errors import InvalidRunError, SimulationError
from .kb import RunRecord
from .mapek import Engine, EngineResult
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

ARTIFACTS = ("events.jsonl", "runs.csv", "report.txt", "report.csv")

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
    run_head = f',"run":{run_index},"t_us":'
    # The execute and step bodies (the text after "event":) are pure functions of
    # their messages, whose fields are str, int, bool or None. Each is rebuilt only
    # when its message differs from the previous tick's: one memo entry per kind.
    last_outcome = last_step = last_dt_us = None
    for (t_us, upload, ok), condition, strategy, outcome, dt_us, stepped in ticks:
        if outcome != last_outcome:
            source, strategy_id, target, applied = last_outcome = outcome
            execute = (
                f'"execute","source":"{source}",'
                f'"strategy_id":{"null" if strategy_id is None else strategy_id},'
                f'"target":{quoted[target]},"applied":{_JSON_BOOL[applied]}}}\n'
            )
        if stepped != last_step or dt_us != last_dt_us:
            reconfig_us, streamed_us, active = last_step = stepped
            last_dt_us = dt_us
            step = (
                f'"step","dt_us":{dt_us},"reconfig_us":{reconfig_us},'
                f'"segments":[{f"[{quoted[active]},{streamed_us}]" if streamed_us else ""}],'
                f'"active":{quoted[active]}}}\n'
            )
        tail = f'{run_head}{t_us},"event":'
        if strategy is None:
            decision = f'{{"seq":{seq + 2}{tail}"plan","action":"keep"}}\n'
            after = seq + 3
        else:
            # registered exactly when the registry is up, as the execute source says
            registered = outcome.source == "registry"
            planned_target = quoted[strategy.target]
            decision = (
                f'{{"seq":{seq + 2}{tail}"plan","action":"strategy",'
                f'"target":{planned_target},"reason":"{strategy.reason}"}}\n'
                f'{{"seq":{seq + 3}{tail}"register","ok":{_JSON_BOOL[registered]},'
                f'"strategy_id":{strategy.id if registered else "null"},'
                f'"target":{planned_target}}}\n'
            )
            after = seq + 4
        # the tick's five or six lines in one string
        add(
            f'{{"seq":{seq}{tail}"monitor","upload_mbps":{upload!r},"ok":{_JSON_BOOL[ok]}}}\n'
            f'{{"seq":{seq + 1}{tail}"analyze","condition":"{condition}"}}\n'
            f"{decision}"
            f'{{"seq":{after}{tail}{execute}'
            f'{{"seq":{after + 1}{tail}{step}'
        )
        seq = after + 2
    return "".join(lines)


class JsonlFileSink:
    """Writes each run's events to an open text file as soon as the run ends."""

    def __init__(self, file: TextIO):
        self._file = file
        self._quoted = QuotedNames()
        self._seq = 0  # the next line's seq: seq counts the lines from 0

    def write_run(self, run_index: int, ticks: list[tuple]) -> None:
        self._file.write(events_jsonl_text(run_index, self._seq, ticks, self._quoted))
        # five lines a tick, and a register line when the tick carries a strategy
        self._seq += 5 * len(ticks) + sum(1 for tick in ticks if tick[2] is not None)


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
    for col, name in zip(header[len(RUNS_CSV_FIXED_COLUMNS):], names):
        if not col.startswith("seconds_") or not name:
            raise SimulationError(f"{path}: column {col!r} is not seconds_<config>")
        if names.count(name) > 1:
            raise SimulationError(f"{path}: repeated column {col!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise SimulationError(f"{path}:{lineno}: {len(cells)} cells for {len(header)} columns")
        if records and cells[1] != records[0].scenario:
            raise SimulationError(
                f"{path}:{lineno}: scenario {cells[1]!r} differs from {records[0].scenario!r} on line 2"
            )
        try:
            # zero columns are padding for configs the run never streamed
            streamed = {
                name: us
                for i, name in enumerate(names)
                if (us := to_us(float(cells[len(RUNS_CSV_FIXED_COLUMNS) + i]))) != 0
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
        except (ValueError, OverflowError, InvalidRunError) as exc:
            raise SimulationError(f"{path}:{lineno}: malformed run row: {exc}") from exc
    return records, names


def _selection_lines(config: ScenarioConfig, result: EngineResult, report: PerformanceReport) -> list[str]:
    space = config.space
    selection = selection_fractions(result.records, space.names)
    lines = [f"threshold_mbps: {result.threshold_mbps:.6f}"]
    lines += [f"selection {name}: {format_selection(*fracs)}" for name, fracs in selection.items()]
    if config.mode == "adaptive":
        # closed-form prediction from the aggregate streamed-time mix, next to
        # the measured mean (mean-of-ratios); they agree only approximately
        for preset, qw in QUALITY_PRESETS.items():
            model = sum(
                sec_frac * config_quality_score(c, space, qw)
                for c, (_, sec_frac) in zip(space.configs, selection.values())
            )
            measured = report.grid["qp"][preset]
            lines.append(f"qp {preset}: mix-model {model:.4f}, measured {measured:.4f}")
    return lines


def run_experiment(config: ScenarioConfig, out_dir: str | Path) -> PerformanceReport:
    """Run the scenario and write runs.csv, events.jsonl, report.csv, report.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Each artifact is written to <name>.partial, and the partials replace
    # the previous artifacts only once all four are complete. The old
    # report.csv goes first and the new one lands last, so a directory the
    # replaces left half done has no report.csv, and `compare` refuses it.
    partials = {name: out / f"{name}.partial" for name in ARTIFACTS}
    try:
        with partials["events.jsonl"].open("w", encoding="utf-8", newline="") as f:
            result = Engine(config).run(JsonlFileSink(f))
        report = aggregate(result.records, config.space)
        partials["runs.csv"].write_text(
            runs_csv_text(result.records, config.space.names), encoding="utf-8", newline=""
        )
        partials["report.csv"].write_text(render_report_csv(report), encoding="utf-8", newline="")
        partials["report.txt"].write_text(
            render_report_text(report, extra_lines=_selection_lines(config, result, report)),
            encoding="utf-8",
            newline="",
        )
        (out / "report.csv").unlink(missing_ok=True)
        for name, partial in partials.items():
            os.replace(partial, out / name)
    except BaseException:
        for partial in partials.values():
            partial.unlink(missing_ok=True)
        raise
    return report


def parse_report_csv(path: str | Path) -> dict[str, dict[str, float]]:
    """Read a report grid back as {metric: {preset: value}}."""
    lines = _read_lines(path)
    header = "metric," + ",".join(QUALITY_PRESETS)
    if not lines or lines[0] != header:
        raise SimulationError(f"{path} is not a report grid: its header is not {header!r}")
    grid: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        metric, *cells = line.split(",")
        if len(cells) != len(QUALITY_PRESETS):
            raise SimulationError(f"{path}:{lineno}: {len(cells)} cells for {len(QUALITY_PRESETS)} presets")
        if metric not in REPORT_METRICS:
            raise SimulationError(
                f"{path}:{lineno}: unknown metric row {metric!r}, not one of {list(REPORT_METRICS)}"
            )
        if metric in grid:
            raise SimulationError(f"{path}:{lineno}: repeated metric row {metric!r}")
        try:
            values = [float(v) for v in cells]
        except ValueError as exc:
            raise SimulationError(f"{path}:{lineno}: malformed report cell: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise SimulationError(f"{path}:{lineno}: non-finite report cell in {line!r}")
        if not all(0.0 <= v <= 1.0 for v in values):
            raise SimulationError(f"{path}:{lineno}: report cell outside [0, 1] in {line!r}")
        grid[metric] = dict(zip(QUALITY_PRESETS, values))
    missing = [m for m in REPORT_METRICS if m not in grid]
    if missing:
        raise SimulationError(f"{path} is missing metric rows {missing}")
    return grid


class ScenarioArtifacts(NamedTuple):
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


class Comparison(NamedTuple):
    artifacts: list[ScenarioArtifacts]
    # (p-metric, preset) -> winning scenario label, or "tie"
    verdicts: dict[tuple[str, str], str]
    # adaptive scenario's per-config (run fraction, seconds fraction)
    adaptive_selection: dict[str, tuple[float, float]]


def compare(artifact_dirs: list[str | Path]) -> Comparison:
    """Side-by-side comparison of scenario outputs (canonically LR, HR, adaptive)."""
    artifacts = [ScenarioArtifacts.load(d) for d in artifact_dirs]
    if len({a.label for a in artifacts}) != len(artifacts):
        raise SimulationError("comparison needs distinct scenarios")

    verdicts: dict[tuple[str, str], str] = {}
    for metric in ("p1", "p2", "p3"):
        for preset in QUALITY_PRESETS:
            best = max(a.grid[metric][preset] for a in artifacts)
            winners = [a.label for a in artifacts if a.grid[metric][preset] == best]
            verdicts[(metric, preset)] = winners[0] if len(winners) == 1 else "tie"

    adaptive_selection = next(
        (selection_fractions(a.records, a.config_names) for a in artifacts if a.label == "adaptive"),
        {},
    )
    return Comparison(artifacts=artifacts, verdicts=verdicts, adaptive_selection=adaptive_selection)


def render_comparison(cmp: Comparison) -> str:
    presets = QUALITY_PRESETS
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
