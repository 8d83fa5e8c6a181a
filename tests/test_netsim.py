from __future__ import annotations

import math
import random
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adastream.netsim import (
    BandwidthTrace,
    FaultSchedule,
    TraceParams,
    compute_threshold,
    generate_trace,
    probe,
    sample_indices,
)
from adastream.units import US_PER_SECOND as S

from conftest import check_of
import reference_loop

NO_FAULTS = FaultSchedule.of()


@settings(max_examples=300, deadline=None)
@given(
    mean=st.floats(0.01, 50.0),
    amplitude=st.floats(0.0, 100.0),  # above the mean, the trace clamps at 0
    period=st.floats(1e-3, 1e4),
    noise_sd=st.one_of(st.just(0.0), st.floats(1e-300, 1e3)),
    samples=st.integers(1, 257),  # odd and even counts: gauss draws its values in pairs
    step_us=st.sampled_from([1, 250_000, S, 7 * S]),
    short=st.integers(1, 257),
    seed=st.one_of(st.integers(), st.text(max_size=12)),
)
def test_trace_matches_one_gauss_call_per_sample(
    mean, amplitude, period, noise_sd, samples, step_us, short, seed
):
    shape = TraceParams(mean, amplitude, period, noise_sd, step_us)
    trace = generate_trace(shape, samples * step_us, seed)
    expected = reference_loop.trace(shape, samples * step_us, seed)
    assert list(trace.uploads) == expected
    # repr tells 0.0 from -0.0, which == does not
    assert [repr(u) for u in trace.uploads] == [repr(u) for u in expected]
    # Engine's warmup trace relies on this: a shorter trace is a prefix of a longer one
    prefix = generate_trace(shape, min(short, samples) * step_us, seed)
    assert prefix.uploads == trace.uploads[: len(prefix.uploads)]


@settings(max_examples=400, deadline=None)
@given(
    seed=st.one_of(st.integers(), st.text(max_size=12)),  # text covers non-ASCII
    grid_us=st.sampled_from([1, 500_000, 1_000_000]),
    ticks=st.integers(0, 10**13),
    upload=st.floats(0.0, 1e6),
    sd=st.floats(1e-300, 1e6),
)
def test_probe_noise_matches_a_fresh_random_per_instant(seed, grid_us, ticks, upload, sd):
    t_us = ticks // grid_us * grid_us  # up to 1e13 us, on the monitoring grid
    trace = BandwidthTrace(uploads=(upload,), step_us=10**13 + 1)
    probed_t_us, probed, ok = probe(trace, NO_FAULTS, t_us, probe_noise_sd=sd, seed=seed)
    expected = reference_loop.noisy_upload(upload, seed, t_us, sd)
    assert (probed_t_us, ok) == (t_us, True)
    # repr and copysign tell 0.0 from -0.0, which == does not
    assert repr(probed) == repr(expected)
    assert math.copysign(1.0, probed) == math.copysign(1.0, expected)


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

