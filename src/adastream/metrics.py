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
the combined p values are computed from those means. `RunFold` takes the
runs one at a time as they end, so no run record is held.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .errors import SimulationError
from .kb import AdaptationSpace, RunRecord, StreamConfig


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


def quality_scores(space: AdaptationSpace) -> dict[str, dict[str, float]]:
    """{preset: {config name: its score}}: each config scored once per preset, not once per run."""
    return {
        preset: {c.name: config_quality_score(c, space, qw) for c in space.configs}
        for preset, qw in QUALITY_PRESETS.items()
    }


def _quality_at(record: RunRecord, scores: dict[str, float]) -> float:
    """qp(r), achieved quality relative to the best, from each config's score by name.

    The normalizer is the streamed time itself (best per-second score is
    1.0), so a run that never streamed has no defined quality.
    """
    streamed_total = record.duration_us - record.reconfig_us
    if streamed_total <= 0:
        raise SimulationError(
            f"run {record.run_index} streamed nothing; quality performance undefined"
        )
    achieved = sum(streamed * scores[name] for name, streamed in record.streamed_us.items())
    return achieved / streamed_total


def system_performance(tp: float, qp: float, pw: PerformanceWeights) -> float:
    """Weighted combination of time and quality performance."""
    return pw.w_t * tp + pw.w_q * qp


def _exact(value: float) -> int:
    """`value` in units of 2**-1074, of which every finite float is a whole multiple."""
    numerator, denominator = value.as_integer_ratio()
    # the denominator is a power of two, at most 2**1074: shift by what divides it out
    return numerator << (1075 - denominator.bit_length())


class RunFold:
    """One scenario's runs, folded one record at a time as each run ends.

    tp and each preset's qp are summed exactly, so each mean is bit for bit
    `statistics.fmean` of the per-run values; the selection counts go over
    `names`. With no `scores` ({preset: {config name: score}}), as in
    `compare`, no qp is summed.
    """

    def __init__(self, names: tuple[str, ...], scores: dict[str, dict[str, float]]):
        self.names = names
        self.scores = scores
        self.runs = 0
        self.tp_sum = 0
        self.qp_sums = dict.fromkeys(scores, 0)
        self.dominated = dict.fromkeys(names, 0)
        self.streamed_at = dict.fromkeys(names, 0)

    def add(self, record: RunRecord) -> None:
        self.runs += 1
        self.tp_sum += _exact(time_performance(record))
        for preset, scores in self.scores.items():
            self.qp_sums[preset] += _exact(_quality_at(record, scores))
        streamed = record.streamed_us
        for name in self.names:
            self.streamed_at[name] += streamed.get(name, 0)
        if self.names:
            # max returns the first of several equal keys
            self.dominated[max(self.names, key=lambda name: streamed.get(name, 0))] += 1


def aggregate(fold: RunFold) -> dict[str, dict[str, float]]:
    """The report's `grid[metric][preset]`: means over the folded runs, at least
    one, and p values from the means. Rows follow REPORT_METRICS and columns
    the fold's presets; the tp row holds the same mean in every column.
    """
    tp_mean = fold.tp_sum / (1 << 1074) / fold.runs
    grid: dict[str, dict[str, float]] = {metric: {} for metric in REPORT_METRICS}
    for preset, qp_sum in fold.qp_sums.items():
        qp_mean = qp_sum / (1 << 1074) / fold.runs
        grid["tp"][preset] = tp_mean
        grid["qp"][preset] = qp_mean
        for p_name, pw in PERFORMANCE_PRESETS.items():
            grid[p_name][preset] = system_performance(tp_mean, qp_mean, pw)
    return grid


def selection_fractions(fold: RunFold) -> dict[str, tuple[float, float]]:
    """{name: (fraction of runs it dominated, fraction of streamed seconds at it)}.

    A run's dominant config is the one that streamed the most seconds in it;
    a tie goes to the config first in the fold's names. The fold holds at
    least one run.
    """
    total = sum(fold.streamed_at.values()) or 1  # nothing streamed: every seconds fraction is 0
    return {name: (fold.dominated[name] / fold.runs, fold.streamed_at[name] / total) for name in fold.names}


def format_selection(run_fraction: float, seconds_fraction: float) -> str:
    """The report's and the comparison's wording of one config's selection_fractions."""
    return (
        f"{100 * run_fraction:.1f}% of runs (dominant), "
        f"{100 * seconds_fraction:.1f}% of streamed seconds"
    )


def round_half_up(value: float) -> float:
    """Round a finite value half away from zero at 2 decimals (report display rule).

    It rounds the decimal digits of `repr(value)`, as `Decimal(repr(value))`
    quantized with ROUND_HALF_UP does, in integer arithmetic.
    """
    mantissa, _, exponent = repr(value).partition("e")
    whole, _, fraction = mantissa.lstrip("-").partition(".")
    digits = int(whole + fraction)
    shift = int(exponent or 0) - len(fraction) + 2  # |value| * 100 == digits * 10**shift
    if shift >= 0:
        hundredths = digits * 10**shift
    else:
        hundredths, rest = divmod(digits, 10**-shift)
        hundredths += 2 * rest >= 10**-shift
    rounded = hundredths / 100
    return -rounded if mantissa[0] == "-" else rounded


def format_cell(value: float) -> str:
    """A grid cell: half-up to 2 decimals."""
    return f"{round_half_up(value):.2f}"


def grid_row(label: str, values: Iterable[float]) -> str:
    """One aligned grid line: the label, then each value as a right-aligned cell."""
    return label.ljust(GRID_WIDTH) + "".join(format_cell(v).rjust(GRID_WIDTH) for v in values)


def render_report_csv(grid: dict[str, dict[str, float]]) -> str:
    """Report grid as CSV: metric rows by quality-preset columns, 2-decimal cells."""
    lines = ["metric," + ",".join(QUALITY_PRESETS)]
    for metric, row in grid.items():
        lines.append(metric + "," + ",".join(format_cell(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def render_report_text(scenario: str, runs: int, grid: dict[str, dict[str, float]], extra_lines: list[str]) -> str:
    """Human-readable aligned table of the same grid, with `extra_lines` above it."""
    out = [
        f"scenario: {scenario}",
        f"runs:     {runs}",
        *extra_lines,
        "",
        "metric".ljust(GRID_WIDTH) + "".join(p.rjust(GRID_WIDTH) for p in QUALITY_PRESETS),
    ]
    out += [grid_row(metric, row.values()) for metric, row in grid.items()]
    return "\n".join(out) + "\n"
