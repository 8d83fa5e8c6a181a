"""Deterministic simulated network environment.

Upload bandwidth over time is modeled as a clamped sinusoid plus Gaussian
noise, sampled at a fixed step:

    upload(t) = max(0, mean + amplitude * sin(2*pi*t / period) + N(0, noise_sd))

Everything here is a pure function of (parameters, seed): replays are
bit-identical, and probe noise is keyed on (seed, t) so a probe at a given
instant does not depend on call order.
"""

from __future__ import annotations

import math
import random
from _random import Random as _MersenneTwister
from bisect import bisect_right
from random import _sha512  # the hash Random.seed uses, from its lean module
from typing import NamedTuple

from .kb import Frozen
from .units import to_us

FAULT_KINDS = ("probe-unavailable", "registry-unavailable")


class BandwidthTrace(NamedTuple):
    """Piecewise-constant upload speed: uploads[i] covers [i*step, (i+1)*step)."""

    uploads: tuple[float, ...]
    step_us: int


class FaultWindow(NamedTuple):
    start_us: int
    end_us: int
    kind: str  # one of FAULT_KINDS


class FaultSchedule(Frozen):
    """Fault windows, non-overlapping per kind; an immutable value, equal by `windows`.

    Each kind's windows are indexed once as sorted start and end arrays, so
    a lookup is a bisect rather than a scan over every window.
    """

    __slots__ = ("windows", "_index")

    def __init__(self, windows: tuple[FaultWindow, ...] = ()):
        # kind -> (starts, ends); both ascending because windows never overlap
        index: dict[str, tuple[list[int], list[int]]] = {}
        for kind in FAULT_KINDS:
            spans = sorted((w.start_us, w.end_us) for w in windows if w.kind == kind)
            for (_, prev_end), (start, _) in zip(spans, spans[1:]):
                if start < prev_end:
                    raise ValueError(f"overlapping {kind} fault windows")
            if spans:
                index[kind] = ([s for s, _ in spans], [e for _, e in spans])
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "_index", index)

    def active(self, kind: str, t_us: int) -> bool:
        spans = self._index.get(kind)
        if spans is None:
            return False
        starts, ends = spans
        i = bisect_right(starts, t_us) - 1
        return i >= 0 and t_us < ends[i]


# The loop makes one of these per tick.
class SpeedSample(NamedTuple):
    """One probe result; ok=False means the probe itself was unavailable."""

    t_us: int
    upload_mbps: float
    ok: bool


def generate_trace(
    mean: float,
    amplitude: float,
    period: float,
    noise_sd: float,
    duration_us: int,
    step_us: int,
    seed: int | str,
) -> BandwidthTrace:
    """Generate a seeded bandwidth trace covering [0, duration_us) at a fixed step.

    parse_scenario bounds every parameter: mean, step and period positive,
    noise_sd non-negative, and duration_us at least one step.
    """
    n = -(-duration_us // step_us)  # ceil: every instant below duration is covered
    two_pi, sin = 2.0 * math.pi, math.sin
    # Sample i is mean + amplitude * sin(two_pi * t / period) at t = i * step_us / 1e6,
    # plus its noise, clamped at 0, spelled out inline. With noise_sd == 0 the
    # noise term is +0.0, so every sample is the bare curve.
    uploads: list[float] = []
    append = uploads.append
    # Bit for bit one random.Random(seed).gauss(0.0, noise_sd) per sample: gauss
    # makes a pair from two random() calls, hands out its cos value, then the
    # cached sin value. An odd count makes one sample too many and drops it.
    random_, cos, sqrt, log = random.Random(seed).random, math.cos, math.sqrt, math.log
    for i in range(0, n, 2):
        x2pi = random_() * two_pi
        g2rad = sqrt(-2.0 * log(1.0 - random_()))
        value = mean + amplitude * sin(two_pi * (i * step_us / 1e6) / period)
        value += 0.0 + cos(x2pi) * g2rad * noise_sd
        append(value if value > 0.0 else 0.0)
        value = mean + amplitude * sin(two_pi * ((i + 1) * step_us / 1e6) / period)
        value += 0.0 + sin(x2pi) * g2rad * noise_sd
        append(value if value > 0.0 else 0.0)
    if n % 2:
        uploads.pop()
    return BandwidthTrace(uploads=tuple(uploads), step_us=step_us)


# Reseeded in full before every draw, so no state carries from one call to
# the next; only the generator object itself is reused. Like the loop that
# calls it, this is not safe to share between threads.
_noise_rng = _MersenneTwister()
# Bound once, so a draw looks up no attribute.
_reseed, _draw = _noise_rng.seed, _noise_rng.random
_tau, _cos, _sqrt, _log = math.tau, math.cos, math.sqrt, math.log


def _keyed_gauss(key: str, sd: float) -> float:
    """Bit for bit `random.Random(key).gauss(0.0, sd)`, at a fraction of the cost.

    It builds no `random.Random` and skips its Python-level seed and gauss
    wrappers: the seed is the int `Random.seed` derives from a str, and the
    draw is gauss's first value from a fresh state.
    """
    data = key.encode()
    _reseed(int.from_bytes(data + _sha512(data).digest(), "big"))
    x2pi = _draw() * _tau
    g2rad = _sqrt(-2.0 * _log(1.0 - _draw()))
    return 0.0 + _cos(x2pi) * g2rad * sd


def probe(
    trace: BandwidthTrace,
    faults: FaultSchedule,
    t_us: int,
    probe_noise_sd: float,
    seed: int | str,
) -> SpeedSample:
    """Run the speed-test probe at time t_us.

    Inside a probe-unavailable fault window the result is ok=False. The
    measurement noise stream is keyed on (seed, t_us), so the same instant
    always yields the same sample. The engine's trace covers every tick.
    """
    if faults.active("probe-unavailable", t_us):
        return SpeedSample(t_us=t_us, upload_mbps=0.0, ok=False)
    upload = trace.uploads[t_us // trace.step_us]
    if probe_noise_sd > 0:
        upload = max(0.0, upload + _keyed_gauss(f"{seed}:{t_us}", probe_noise_sd))
    return SpeedSample(t_us, upload, True)


def sample_indices(start_us: int, end_us: int, step_us: int) -> range:
    """The indices i of the sample instants i * step_us in [start_us, end_us)."""
    return range(-(-start_us // step_us), -(-end_us // step_us))


def compute_threshold(trace: BandwidthTrace, warmup_start: float, warmup_end: float) -> float:
    """Mean upload speed over samples with warmup_start <= t < warmup_end, in seconds.

    parse_scenario checks, with the same `sample_indices`, that the window
    selects at least one sample of the trace.
    """
    span = sample_indices(to_us(warmup_start), to_us(warmup_end), trace.step_us)
    values = trace.uploads[span.start:span.stop]
    return math.fsum(values) / len(values)  # metrics.fmean, bit for bit

