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
    FaultWindow,
    compute_threshold,
    generate_trace,
    probe,
    sample_indices,
)
from adastream.units import US_PER_SECOND as S

NO_FAULTS = FaultSchedule()


def test_degenerate_sinusoid_is_constant():
    trace = generate_trace(mean=5, amplitude=0, period=600, noise_sd=0, duration_us=20 * S, step_us=S, seed=0)
    assert all(u == 5.0 for u in trace.uploads)
    assert len(trace.uploads) == 20


def test_same_seed_same_trace():
    kwargs = dict(mean=5, amplitude=2, period=60, noise_sd=0.5, duration_us=100 * S, step_us=S)
    a = generate_trace(**kwargs, seed=7)
    b = generate_trace(**kwargs, seed=7)
    assert a.uploads == b.uploads
    c = generate_trace(**kwargs, seed=8)
    assert a.uploads != c.uploads


def test_clamped_at_zero():
    # period 4 at step 1 hits sin = -1 at t=3, where 2 + 3*(-1) < 0
    trace = generate_trace(mean=2, amplitude=3, period=4, noise_sd=0, duration_us=4 * S, step_us=S, seed=0)
    assert trace.uploads[3] == 0.0
    assert all(u >= 0 for u in trace.uploads)


def test_clamping_holds_under_heavy_noise():
    for seed in range(10):
        trace = generate_trace(
            mean=1, amplitude=2, period=30, noise_sd=3, duration_us=200 * S, step_us=S, seed=seed
        )
        assert all(u >= 0 for u in trace.uploads)


def reference_trace(mean, amplitude, period, noise_sd, duration_us, step_us, seed) -> list[float]:
    """The trace by definition: one `Random(seed).gauss` call per noisy sample."""
    rng = random.Random(seed)
    uploads = []
    for i in range(-(-duration_us // step_us)):
        t = i * step_us / 1e6
        value = mean + amplitude * math.sin(2.0 * math.pi * t / period)
        if noise_sd > 0:
            value += rng.gauss(0.0, noise_sd)
        uploads.append(max(0.0, value))
    return uploads


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
    shape = dict(mean=mean, amplitude=amplitude, period=period, noise_sd=noise_sd, step_us=step_us, seed=seed)
    trace = generate_trace(duration_us=samples * step_us, **shape)
    expected = reference_trace(duration_us=samples * step_us, **shape)
    assert list(trace.uploads) == expected
    # repr tells 0.0 from -0.0, which == does not
    assert [repr(u) for u in trace.uploads] == [repr(u) for u in expected]
    # Engine's warmup trace relies on this: a shorter trace is a prefix of a longer one
    prefix = generate_trace(duration_us=min(short, samples) * step_us, **shape)
    assert prefix.uploads == trace.uploads[: len(prefix.uploads)]


def test_noiseless_probe_reads_the_enclosing_step_left_closed():
    trace = generate_trace(mean=5, amplitude=2, period=60, noise_sd=0, duration_us=10 * S, step_us=S, seed=0)

    def read(t_us):
        return probe(trace, NO_FAULTS, t_us, probe_noise_sd=0, seed=1).upload_mbps

    assert read(0) == trace.uploads[0]
    assert read(2_500_000) == read(2 * S)
    assert read(2_999_999) == trace.uploads[2]
    assert read(10 * S - 1) == trace.uploads[9]  # the trace's last instant


def test_noiseless_probe_equals_bandwidth():
    trace = generate_trace(mean=5, amplitude=2, period=60, noise_sd=0.3, duration_us=30 * S, step_us=S, seed=3)
    for t_us in (0, 7 * S, 29_500_000):
        sample = probe(trace, NO_FAULTS, t_us, probe_noise_sd=0, seed=1)
        assert sample.ok
        assert sample.upload_mbps == trace.uploads[t_us // S]


def test_probe_inside_fault_window_is_not_ok():
    trace = generate_trace(mean=5, amplitude=0, period=60, noise_sd=0, duration_us=30 * S, step_us=S, seed=0)
    faults = FaultSchedule(windows=(FaultWindow(5_000_000, 10_000_000, "probe-unavailable"),))
    assert not probe(trace, faults, 7 * S, 0, seed=1).ok
    assert probe(trace, faults, 4 * S, 0, seed=1).ok
    assert probe(trace, faults, 10 * S, 0, seed=1).ok  # window is half-open


def test_probe_deterministic_per_instant_regardless_of_call_order():
    trace = generate_trace(mean=5, amplitude=1, period=60, noise_sd=0, duration_us=30 * S, step_us=S, seed=0)
    first = probe(trace, NO_FAULTS, 12 * S, probe_noise_sd=0.4, seed=9)
    probe(trace, NO_FAULTS, 3 * S, probe_noise_sd=0.4, seed=9)  # interleaved other call
    second = probe(trace, NO_FAULTS, 12 * S, probe_noise_sd=0.4, seed=9)
    assert first == second
    assert probe(trace, NO_FAULTS, 12 * S, probe_noise_sd=0.4, seed=10) != first


def reference_noisy_upload(upload: float, seed: int | str, t_us: int, sd: float) -> float:
    """The probe's noisy reading by definition: a fresh Random per (seed, t)."""
    return max(0.0, upload + random.Random(f"{seed}:{t_us}").gauss(0.0, sd))


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
    sample = probe(trace, NO_FAULTS, t_us, probe_noise_sd=sd, seed=seed)
    expected = reference_noisy_upload(upload, seed, t_us, sd)
    assert sample.t_us == t_us
    # repr and copysign tell 0.0 from -0.0, which == does not
    assert repr(sample.upload_mbps) == repr(expected)
    assert math.copysign(1.0, sample.upload_mbps) == math.copysign(1.0, expected)


def test_fault_schedule_rejects_overlap_same_kind():
    with pytest.raises(ValueError):
        FaultSchedule(
            windows=(
                FaultWindow(0, 10_000_000, "probe-unavailable"),
                FaultWindow(5_000_000, 15_000_000, "probe-unavailable"),
            )
        )
    # different kinds may overlap
    FaultSchedule(
        windows=(
            FaultWindow(0, 10_000_000, "probe-unavailable"),
            FaultWindow(5_000_000, 15_000_000, "registry-unavailable"),
        )
    )


def test_threshold_of_constant_trace_is_the_constant():
    trace = generate_trace(mean=5, amplitude=0, period=60, noise_sd=0, duration_us=100 * S, step_us=S, seed=0)
    for window in ((0, 100), (0, 1), (37, 64), (99, 100)):
        assert compute_threshold(trace, *window) == 5.0


def test_threshold_is_arithmetic_mean():
    trace = BandwidthTrace(uploads=(2.0, 4.0, 6.0), step_us=1_000_000)
    assert compute_threshold(trace, 0, 3) == 4.0
    assert compute_threshold(trace, 0, 2) == 3.0
    assert compute_threshold(trace, 1, 3) == 5.0


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
            scanned = [u for i, u in enumerate(trace.uploads) if start_us <= i * step_us < end_us]
            # parse_scenario refuses a window that selects no samples, with the same sample_indices
            assert bool(scanned) == bool(sample_indices(start_us, end_us, step_us))
            if scanned:
                assert repr(compute_threshold(trace, start_us / 1e6, end_us / 1e6)) == repr(fmean(scanned))


@settings(max_examples=120, deadline=None)
@given(
    mean=st.floats(0.1, 20.0),
    amplitude=st.floats(0.0, 25.0),
    period=st.floats(0.5, 5000.0),
    noise_sd=st.sampled_from([0.0, 0.05, 1.0, 8.0]),
    seed=st.one_of(st.integers(-5, 10**6), st.text(max_size=6)),
    step_us=st.sampled_from([100_000, 250_000, 500_000, S, 3 * S]),
    window=st.tuples(st.integers(0, 1200), st.integers(1, 800), st.integers(0, 400)),
)
def test_warmup_prefix_gives_the_full_trace_threshold(
    mean, amplitude, period, noise_sd, seed, step_us, window
):
    # The engine generates its warmup trace only up to max(end, step).
    start_ds, width_ds, tail_ds = window
    start, end = start_ds / 10, (start_ds + width_ds) / 10
    shape = dict(
        mean=mean, amplitude=amplitude, period=period, noise_sd=noise_sd, step_us=step_us, seed=seed
    )
    end_us = (start_ds + width_ds) * 100_000
    full = generate_trace(duration_us=max(end_us + tail_ds * 100_000, step_us), **shape)
    prefix = generate_trace(duration_us=max(end_us, step_us), **shape)
    assert prefix.uploads == full.uploads[: len(prefix.uploads)]
    # parse_scenario refuses a window that selects no samples
    if sample_indices(start_ds * 100_000, end_us, step_us):
        assert compute_threshold(prefix, start, end) == compute_threshold(full, start, end)


def test_below_threshold_time_grows_with_amplitude():
    # Clamping lifts the mean above the median, so larger amplitudes put
    # more of the trace below its own average.
    mean_fraction = []
    for amplitude in (0.0, 2.0, 6.0, 10.0):
        fractions = []
        for seed in range(8):
            trace = generate_trace(
                mean=5, amplitude=amplitude, period=97, noise_sd=0.4,
                duration_us=4000 * S, step_us=S, seed=seed,
            )
            threshold = compute_threshold(trace, 0, 4000)
            fractions.append(sum(1 for u in trace.uploads if u < threshold) / len(trace.uploads))
        mean_fraction.append(sum(fractions) / len(fractions))
    for lo, hi in zip(mean_fraction, mean_fraction[1:]):
        assert hi >= lo - 0.01

