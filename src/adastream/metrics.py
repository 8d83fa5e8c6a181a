"""Time performance, quality performance, and their weighted combination.

Definitions, for one run r:

    tp(r) = 1 - reconfig_time(r) / duration(r)
    qp(r) = sum_c streamed[c] * score(c) / streamed_total        (codomain [0, 1])
    p     = w_t * tp + w_q * qp                                  (w_t + w_q = 1)

where score(c) = w_rate * frame_rate(c) / max_frame_rate + w_frame * quality_score(c)
under a quality weighting (w_rate, w_frame) with w_rate + w_frame = 1.

qp normalizes by the best achievable quality over the seconds actually
streamed, so tp (time lost to reconfiguration) and qp (quality of what was
streamed) stay orthogonal. Aggregates are arithmetic means over runs, and
the combined p values are computed from those means.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from statistics import fmean

from .errors import InvalidRunError
from .kb import AdaptationSpace, RunRecord, StreamConfig

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class QualityWeights:
    """Weighting of frame rate vs frame quality inside a run's quality score."""

    w_rate: float
    w_frame: float

    def __post_init__(self) -> None:
        if self.w_rate < 0 or self.w_frame < 0:
            raise ValueError(f"quality weights must be non-negative, got {self}")
        if abs(self.w_rate + self.w_frame - 1.0) > _BOUND_SLACK:
            raise ValueError(f"quality weights must sum to 1, got {self}")


@dataclass(frozen=True)
class PerformanceWeights:
    """Weighting of time performance vs quality performance in the combined metric."""

    w_t: float
    w_q: float

    def __post_init__(self) -> None:
        if self.w_t < 0 or self.w_q < 0:
            raise ValueError(f"performance weights must be non-negative, got {self}")
        if abs(self.w_t + self.w_q - 1.0) > _BOUND_SLACK:
            raise ValueError(f"performance weights must sum to 1, got {self}")


QUALITY_PRESETS: dict[str, QualityWeights] = {
    "5r5q": QualityWeights(0.5, 0.5),
    "9r1q": QualityWeights(0.9, 0.1),
    "1r9q": QualityWeights(0.1, 0.9),
}

PERFORMANCE_PRESETS: dict[str, PerformanceWeights] = {
    "p1": PerformanceWeights(0.5, 0.5),
    "p2": PerformanceWeights(0.9, 0.1),
    "p3": PerformanceWeights(0.1, 0.9),
}

REPORT_METRICS = ("tp", "qp", "p1", "p2", "p3")

# column width of the aligned text grids (report.txt and the comparison)
GRID_WIDTH = 8


def time_performance(record: RunRecord) -> float:
    """Fraction of the run not spent reconfiguring."""
    if record.duration_us <= 0:
        raise InvalidRunError(f"duration must be positive, got {record.duration_us}")
    return 1.0 - record.reconfig_us / record.duration_us


def config_quality_score(config: StreamConfig, space: AdaptationSpace, qw: QualityWeights) -> float:
    """Per-second quality of streaming at `config`, in [0, 1]."""
    if config.name not in space:
        raise ValueError(f"config {config.name!r} not in adaptation space")
    return qw.w_rate * (config.frame_rate / space.max_frame_rate) + qw.w_frame * config.quality_score


def quality_performance(record: RunRecord, space: AdaptationSpace, qw: QualityWeights) -> float:
    """Achieved quality over the run, relative to the best achievable.

    The normalizer is the streamed time itself (best per-second score is
    1.0), so a run that never streamed has no defined quality.
    """
    streamed_total = record.streamed_total_us
    if streamed_total <= 0:
        raise InvalidRunError(
            f"run {record.run_index} streamed nothing; quality performance undefined"
        )
    achieved = sum(
        streamed * config_quality_score(space.config(name), space, qw)
        for name, streamed in record.streamed_us.items()
    )
    return achieved / streamed_total


def system_performance(tp: float, qp: float, pw: PerformanceWeights) -> float:
    """Weighted combination of time and quality performance."""
    for label, value in (("tp", tp), ("qp", qp)):
        if not -_BOUND_SLACK <= value <= 1.0 + _BOUND_SLACK:
            raise ValueError(f"{label} must be in [0, 1], got {value}")
    return pw.w_t * tp + pw.w_q * qp


@dataclass(frozen=True)
class PresetPerformance:
    """One quality-preset column of the report."""

    qp_mean: float
    p1: float
    p2: float
    p3: float


@dataclass(frozen=True)
class PerformanceReport:
    """Aggregated results for one scenario: tp plus per-preset qp/p1/p2/p3."""

    scenario: str
    run_count: int
    tp_mean: float
    presets: dict[str, PresetPerformance]

    def cell(self, metric: str, preset: str) -> float:
        if metric == "tp":
            return self.tp_mean
        column = self.presets[preset]
        return {"qp": column.qp_mean, "p1": column.p1, "p2": column.p2, "p3": column.p3}[metric]


def aggregate(records: list[RunRecord] | tuple[RunRecord, ...], space: AdaptationSpace) -> PerformanceReport:
    """Build the per-scenario report: means over runs, p values from the means."""
    if not records:
        raise ValueError("cannot aggregate zero run records")
    scenarios = {r.scenario for r in records}
    if len(scenarios) > 1:
        raise ValueError(f"records mix scenarios {sorted(scenarios)}")
    tp_mean = fmean(time_performance(r) for r in records)
    presets: dict[str, PresetPerformance] = {}
    for preset_name, qw in QUALITY_PRESETS.items():
        qp_mean = fmean(quality_performance(r, space, qw) for r in records)
        p_values = {
            p_name: system_performance(tp_mean, qp_mean, pw)
            for p_name, pw in PERFORMANCE_PRESETS.items()
        }
        presets[preset_name] = PresetPerformance(
            qp_mean=qp_mean, p1=p_values["p1"], p2=p_values["p2"], p3=p_values["p3"]
        )
    return PerformanceReport(
        scenario=scenarios.pop(), run_count=len(records), tp_mean=tp_mean, presets=presets
    )


def dominant_config(record: RunRecord, names: tuple[str, ...]) -> str:
    """The config that streamed the most seconds in the run (`names` order breaks ties)."""
    return max(names, key=lambda name: (record.streamed_us.get(name, 0), -names.index(name)))


def selection_fractions(
    records: list[RunRecord] | tuple[RunRecord, ...], names: tuple[str, ...], name: str
) -> tuple[float, float]:
    """(fraction of runs dominated by `name`, fraction of streamed seconds at `name`)."""
    if not records:
        raise ValueError("cannot compute selection fractions over zero records")
    if name not in names:
        raise ValueError(f"config {name!r} not in adaptation space {list(names)}")
    dominated = sum(1 for r in records if dominant_config(r, names) == name)
    streamed_at = sum(r.streamed_us.get(name, 0) for r in records)
    streamed_total = sum(r.streamed_total_us for r in records)
    run_fraction = dominated / len(records)
    seconds_fraction = streamed_at / streamed_total if streamed_total else 0.0
    return run_fraction, seconds_fraction


def format_selection(run_fraction: float, seconds_fraction: float) -> str:
    """The report's and the comparison's wording of one config's selection_fractions."""
    return (
        f"{100 * run_fraction:.1f}% of runs (dominant), "
        f"{100 * seconds_fraction:.1f}% of streamed seconds"
    )


def round_half_up(value: float, places: int = 2) -> float:
    """Round half away from zero at `places` decimals (report display rule)."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def format_cell(value: float) -> str:
    """A grid cell: half-up to 2 decimals."""
    return f"{round_half_up(value):.2f}"


def grid_row(label: str, values: Iterable[float]) -> str:
    """One aligned grid line: the label, then each value as a right-aligned cell."""
    return label.ljust(GRID_WIDTH) + "".join(format_cell(v).rjust(GRID_WIDTH) for v in values)


def render_report_csv(report: PerformanceReport) -> str:
    """Report grid as CSV: metric rows by quality-preset columns, 2-decimal cells."""
    preset_names = list(QUALITY_PRESETS)
    lines = ["metric," + ",".join(preset_names)]
    for metric in REPORT_METRICS:
        cells = [format_cell(report.cell(metric, p)) for p in preset_names]
        lines.append(metric + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def render_report_text(report: PerformanceReport, extra_lines: list[str] | None = None) -> str:
    """Human-readable aligned table of the same grid."""
    preset_names = list(QUALITY_PRESETS)
    out = [
        f"scenario: {report.scenario}",
        f"runs:     {report.run_count}",
    ]
    if extra_lines:
        out.extend(extra_lines)
    out.append("")
    out.append("metric".ljust(GRID_WIDTH) + "".join(p.rjust(GRID_WIDTH) for p in preset_names))
    for metric in REPORT_METRICS:
        out.append(grid_row(metric, [report.cell(metric, p) for p in preset_names]))
    return "\n".join(out) + "\n"
