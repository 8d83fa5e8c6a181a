from __future__ import annotations

import random
from statistics import fmean

import pytest

from adastream.netsim import (
    BandwidthTrace,
    FaultSchedule,
    TraceParams,
    compute_threshold,
    generate_trace,
    sample_indices,
)
from adastream.units import US_PER_SECOND as S

import spec_corpus
from conftest import check_of
import reference_loop
from spec_check import check_probe_noise, check_recorded, check_trace


def test_trace_matches_one_gauss_call_per_sample():
    # 300 recorded shapes, odd and even sample counts, int and str seeds
    check_recorded(check_trace, spec_corpus.read("trace"))


def test_probe_noise_matches_a_fresh_random_per_instant():
    # 400 recorded readings, up to 1e13 us, with int and non-ASCII str seeds
    check_recorded(check_probe_noise, spec_corpus.read("probe_noise"))


def test_fault_schedule_rejects_overlap_same_kind():
    check_of(FaultSchedule)


@pytest.mark.parametrize("step_us", [1, 250_000, 3 * S])
def test_threshold_averages_exactly_the_samples_a_scan_selects(step_us):
    # windows at 1 us granularity starting or ending on, or just off, a sample instant
    rng = random.Random(step_us)
    trace = BandwidthTrace(uploads=tuple(rng.uniform(0.0, 9.0) for _ in range(12)), step_us=step_us)
    edges = sorted({
        min(max(0, i * step_us + nudge), 12 * step_us) for i in range(13) for nudge in (-1, 0, 1)
    })
    for start_us in edges:
        for end_us in (e for e in edges if e > start_us):
            scanned = reference_loop.warmup_samples(trace.uploads, step_us, start_us, end_us)
            # parse_scenario refuses a window that selects no samples, with the same sample_indices
            assert bool(scanned) == bool(sample_indices(start_us, end_us, step_us))
            if scanned:
                assert repr(compute_threshold(trace, start_us / 1e6, end_us / 1e6)) == repr(fmean(scanned))


def test_below_threshold_time_grows_with_amplitude():
    # Clamping lifts the mean above the median, so larger amplitudes put
    # more of the trace below its own average.
    mean_fraction = []
    for amplitude in (0.0, 2.0, 6.0, 10.0):
        fractions = []
        for seed in range(8):
            trace = generate_trace(TraceParams(5, amplitude, 97, 0.4, S), 4000 * S, seed=seed)
            threshold = compute_threshold(trace, 0, 4000)
            fractions.append(sum(1 for u in trace.uploads if u < threshold) / len(trace.uploads))
        mean_fraction.append(sum(fractions) / len(fractions))
    for lo, hi in zip(mean_fraction, mean_fraction[1:]):
        assert hi >= lo - 0.01

