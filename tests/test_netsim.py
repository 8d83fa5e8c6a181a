from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adastream.errors import EmptyWindowError, InvalidTraceError, OutOfRangeError
from adastream.netsim import (
    BandwidthTrace,
    FaultSchedule,
    FaultWindow,
    bandwidth_at,
    compute_threshold,
    generate_trace,
    probe,
)

NO_FAULTS = FaultSchedule()


def test_degenerate_sinusoid_is_constant():
    trace = generate_trace(mean=5, amplitude=0, period=600, noise_sd=0, duration=20, step=1, seed=0)
    assert all(u == 5.0 for u in trace.uploads)
    assert len(trace.uploads) == 20


def test_same_seed_same_trace():
    kwargs = dict(mean=5, amplitude=2, period=60, noise_sd=0.5, duration=100, step=1)
    a = generate_trace(**kwargs, seed=7)
    b = generate_trace(**kwargs, seed=7)
    assert a.uploads == b.uploads
    c = generate_trace(**kwargs, seed=8)
    assert a.uploads != c.uploads


def test_clamped_at_zero():
    # period 4 at step 1 hits sin = -1 at t=3, where 2 + 3*(-1) < 0
    trace = generate_trace(mean=2, amplitude=3, period=4, noise_sd=0, duration=4, step=1, seed=0)
    assert trace.uploads[3] == 0.0
    assert all(u >= 0 for u in trace.uploads)


def test_clamping_holds_under_heavy_noise():
    for seed in range(10):
        trace = generate_trace(mean=1, amplitude=2, period=30, noise_sd=3, duration=200, step=1, seed=seed)
        assert all(u >= 0 for u in trace.uploads)


def test_generate_rejects_bad_parameters():
    with pytest.raises(InvalidTraceError):
        generate_trace(mean=0, amplitude=1, period=60, noise_sd=0, duration=10, step=1, seed=0)
    with pytest.raises(InvalidTraceError):
        generate_trace(mean=5, amplitude=1, period=60, noise_sd=0, duration=10, step=0, seed=0)
    with pytest.raises(InvalidTraceError):
        generate_trace(mean=5, amplitude=1, period=60, noise_sd=0, duration=0.5, step=1, seed=0)
    with pytest.raises(InvalidTraceError):
        generate_trace(mean=5, amplitude=1, period=0, noise_sd=0, duration=10, step=1, seed=0)


def test_bandwidth_at_first_sample_and_piecewise_constant():
    trace = generate_trace(mean=5, amplitude=2, period=60, noise_sd=0, duration=10, step=1, seed=0)
    assert bandwidth_at(trace, 0) == trace.uploads[0]
    assert bandwidth_at(trace, 2.5) == bandwidth_at(trace, 2.0)
    assert bandwidth_at(trace, 2.999999) == trace.uploads[2]


def test_bandwidth_at_out_of_range():
    trace = generate_trace(mean=5, amplitude=0, period=60, noise_sd=0, duration=10, step=1, seed=0)
    with pytest.raises(OutOfRangeError):
        bandwidth_at(trace, 10.0)
    with pytest.raises(OutOfRangeError):
        bandwidth_at(trace, -0.5)


def test_noiseless_probe_equals_bandwidth():
    trace = generate_trace(mean=5, amplitude=2, period=60, noise_sd=0.3, duration=30, step=1, seed=3)
    for t in (0, 7, 29.5):
        sample = probe(trace, NO_FAULTS, t, probe_noise_sd=0, seed=1)
        assert sample.ok
        assert sample.upload_mbps == bandwidth_at(trace, t)


def test_probe_inside_fault_window_is_not_ok():
    trace = generate_trace(mean=5, amplitude=0, period=60, noise_sd=0, duration=30, step=1, seed=0)
    faults = FaultSchedule(windows=(FaultWindow(5_000_000, 10_000_000, "probe-unavailable"),))
    assert not probe(trace, faults, 7, 0, seed=1).ok
    assert probe(trace, faults, 4, 0, seed=1).ok
    assert probe(trace, faults, 10, 0, seed=1).ok  # window is half-open


def test_probe_deterministic_per_instant_regardless_of_call_order():
    trace = generate_trace(mean=5, amplitude=1, period=60, noise_sd=0, duration=30, step=1, seed=0)
    first = probe(trace, NO_FAULTS, 12, probe_noise_sd=0.4, seed=9)
    probe(trace, NO_FAULTS, 3, probe_noise_sd=0.4, seed=9)  # interleaved other call
    second = probe(trace, NO_FAULTS, 12, probe_noise_sd=0.4, seed=9)
    assert first == second
    assert probe(trace, NO_FAULTS, 12, probe_noise_sd=0.4, seed=10) != first


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
    sample = probe(trace, NO_FAULTS, t_us / 1e6, probe_noise_sd=sd, seed=seed)
    expected = reference_noisy_upload(upload, seed, t_us, sd)
    assert sample.t_us == t_us
    # repr and copysign tell 0.0 from -0.0, which == does not
    assert repr(sample.upload_mbps) == repr(expected)
    assert math.copysign(1.0, sample.upload_mbps) == math.copysign(1.0, expected)


def test_probe_out_of_range():
    trace = generate_trace(mean=5, amplitude=0, period=60, noise_sd=0, duration=10, step=1, seed=0)
    with pytest.raises(OutOfRangeError):
        probe(trace, NO_FAULTS, 10.5, 0, seed=1)


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
    trace = generate_trace(mean=5, amplitude=0, period=60, noise_sd=0, duration=100, step=1, seed=0)
    for window in ((0, 100), (0, 1), (37, 64), (99, 100)):
        assert compute_threshold(trace, *window) == 5.0


def test_threshold_is_arithmetic_mean():
    trace = BandwidthTrace(uploads=(2.0, 4.0, 6.0), step_us=1_000_000)
    assert compute_threshold(trace, 0, 3) == 4.0
    assert compute_threshold(trace, 0, 2) == 3.0
    assert compute_threshold(trace, 1, 3) == 5.0


def test_threshold_empty_window_errors():
    trace = BandwidthTrace(uploads=(2.0, 4.0, 6.0), step_us=1_000_000)
    with pytest.raises(EmptyWindowError):
        compute_threshold(trace, 1, 1)
    with pytest.raises(EmptyWindowError):
        compute_threshold(trace, 2, 1)
    with pytest.raises(EmptyWindowError):
        compute_threshold(trace, 0, 4)


@settings(max_examples=120, deadline=None)
@given(
    mean=st.floats(0.1, 20.0),
    amplitude=st.floats(0.0, 25.0),
    period=st.floats(0.5, 5000.0),
    noise_sd=st.sampled_from([0.0, 0.05, 1.0, 8.0]),
    seed=st.one_of(st.integers(-5, 10**6), st.text(max_size=6)),
    step=st.sampled_from([0.1, 0.25, 0.5, 1.0, 3.0]),
    window=st.tuples(st.integers(0, 1200), st.integers(1, 800), st.integers(0, 400)),
)
def test_warmup_prefix_gives_the_full_trace_threshold(
    mean, amplitude, period, noise_sd, seed, step, window
):
    # The engine generates its warmup trace only up to max(end, step).
    start_ds, width_ds, tail_ds = window
    start, end = start_ds / 10, (start_ds + width_ds) / 10
    shape = dict(mean=mean, amplitude=amplitude, period=period, noise_sd=noise_sd, step=step, seed=seed)
    full = generate_trace(duration=max(end + tail_ds / 10, step), **shape)
    prefix = generate_trace(duration=max(end, step), **shape)
    assert prefix.uploads == full.uploads[: len(prefix.uploads)]
    try:
        expected = compute_threshold(full, start, end)
    except EmptyWindowError:
        with pytest.raises(EmptyWindowError):
            compute_threshold(prefix, start, end)
    else:
        assert compute_threshold(prefix, start, end) == expected


def test_below_threshold_time_grows_with_amplitude():
    # Clamping lifts the mean above the median, so larger amplitudes put
    # more of the trace below its own average.
    mean_fraction = []
    for amplitude in (0.0, 2.0, 6.0, 10.0):
        fractions = []
        for seed in range(8):
            trace = generate_trace(
                mean=5, amplitude=amplitude, period=97, noise_sd=0.4,
                duration=4000, step=1, seed=seed,
            )
            threshold = compute_threshold(trace, 0, 4000)
            fractions.append(sum(1 for u in trace.uploads if u < threshold) / len(trace.uploads))
        mean_fraction.append(sum(fractions) / len(fractions))
    for lo, hi in zip(mean_fraction, mean_fraction[1:]):
        assert hi >= lo - 0.01

