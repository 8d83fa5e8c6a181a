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

import math
from collections.abc import Iterable, Sequence
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

from .errors import InvalidRunError
from .kb import AdaptationSpace, RunRecord, StreamConfig


def fmean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence, correctly rounded sum first.

    Bit for bit what the standard library's `fmean` returns for a sized input.
    """
    return math.fsum(values) / len(values)


class QualityWeights(NamedTuple):
    """Weighting of frame rate vs frame quality inside a run's quality score."""

    w_rate: float
    w_frame: float


class PerformanceWeights(NamedTuple):
    """Weighting of time performance vs quality performance in the combined metric."""

    w_t: float
    w_q: float


# Each weight pair below is non-negative and sums to 1.
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
    return 1.0 - record.reconfig_us / record.duration_us


def config_quality_score(config: StreamConfig, space: AdaptationSpace, qw: QualityWeights) -> float:
    """Per-second quality of streaming at `config`, one of `space`'s configs, in [0, 1]."""
    max_frame_rate = space.highest_rate_config.frame_rate
    return qw.w_rate * (config.frame_rate / max_frame_rate) + qw.w_frame * config.quality_score


def _quality_at(record: RunRecord, scores: dict[str, float]) -> float:
    """qp(r), achieved quality relative to the best, from each config's score by name.

    The normalizer is the streamed time itself (best per-second score is
    1.0), so a run that never streamed has no defined quality.
    """
    streamed_total = record.streamed_total_us
    if streamed_total <= 0:
        raise InvalidRunError(
            f"run {record.run_index} streamed nothing; quality performance undefined"
        )
    achieved = sum(streamed * scores[name] for name, streamed in record.streamed_us.items())
    return achieved / streamed_total


def system_performance(tp: float, qp: float, pw: PerformanceWeights) -> float:
    """Weighted combination of time and quality performance."""
    return pw.w_t * tp + pw.w_q * qp


class PerformanceReport(NamedTuple):
    """Aggregated results for one scenario as `grid[metric][preset]`.

    Rows follow REPORT_METRICS and columns QUALITY_PRESETS; the tp row holds
    the same mean in every column.
    """

    scenario: str
    run_count: int
    grid: dict[str, dict[str, float]]


def aggregate(records: list[RunRecord] | tuple[RunRecord, ...], space: AdaptationSpace) -> PerformanceReport:
    """Build the per-scenario report: means over runs, p values from the means.

    The records are one scenario's runs, at least one.
    """
    tp_mean = fmean([time_performance(r) for r in records])
    grid: dict[str, dict[str, float]] = {metric: {} for metric in REPORT_METRICS}
    for preset, qw in QUALITY_PRESETS.items():
        # each config scored once per preset, not once per run
        scores = {c.name: config_quality_score(c, space, qw) for c in space.configs}
        qp_mean = fmean([_quality_at(r, scores) for r in records])
        grid["tp"][preset] = tp_mean
        grid["qp"][preset] = qp_mean
        for p_name, pw in PERFORMANCE_PRESETS.items():
            grid[p_name][preset] = system_performance(tp_mean, qp_mean, pw)
    return PerformanceReport(scenario=records[0].scenario, run_count=len(records), grid=grid)


def selection_fractions(
    records: list[RunRecord] | tuple[RunRecord, ...], names: tuple[str, ...]
) -> dict[str, tuple[float, float]]:
    """{name: (fraction of runs it dominated, fraction of streamed seconds at it)}.

    A run's dominant config is the one that streamed the most seconds in it;
    a tie goes to the config first in `names`. The records are at least one.
    """
    dominated = dict.fromkeys(names, 0)
    streamed_at = dict.fromkeys(names, 0)
    streamed_total = 0
    for r in records:
        streamed = r.streamed_us
        for name in names:
            streamed_at[name] += streamed.get(name, 0)
        if names:
            # max returns the first of several equal keys
            dominated[max(names, key=lambda name: streamed.get(name, 0))] += 1
        streamed_total += r.streamed_total_us
    total = streamed_total or 1  # nothing streamed: every seconds fraction is 0
    return {name: (dominated[name] / len(records), streamed_at[name] / total) for name in names}


def format_selection(run_fraction: float, seconds_fraction: float) -> str:
    """The report's and the comparison's wording of one config's selection_fractions."""
    return (
        f"{100 * run_fraction:.1f}% of runs (dominant), "
        f"{100 * seconds_fraction:.1f}% of streamed seconds"
    )


def round_half_up(value: float) -> float:
    """Round half away from zero at 2 decimals (report display rule)."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def format_cell(value: float) -> str:
    """A grid cell: half-up to 2 decimals."""
    return f"{round_half_up(value):.2f}"


def grid_row(label: str, values: Iterable[float]) -> str:
    """One aligned grid line: the label, then each value as a right-aligned cell."""
    return label.ljust(GRID_WIDTH) + "".join(format_cell(v).rjust(GRID_WIDTH) for v in values)


def render_report_csv(report: PerformanceReport) -> str:
    """Report grid as CSV: metric rows by quality-preset columns, 2-decimal cells."""
    lines = ["metric," + ",".join(QUALITY_PRESETS)]
    for metric, row in report.grid.items():
        lines.append(metric + "," + ",".join(format_cell(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def render_report_text(report: PerformanceReport, extra_lines: list[str] | None = None) -> str:
    """Human-readable aligned table of the same grid."""
    out = [
        f"scenario: {report.scenario}",
        f"runs:     {report.run_count}",
        *(extra_lines or ()),
        "",
        "metric".ljust(GRID_WIDTH) + "".join(p.rjust(GRID_WIDTH) for p in QUALITY_PRESETS),
    ]
    out += [grid_row(metric, row.values()) for metric, row in report.grid.items()]
    return "\n".join(out) + "\n"
