"""The autonomic controller: Monitor, Analyzer, Planner, Executor over a
shared knowledge base.

The engine drives the components in-process on a discrete clock, one
message hop per pipeline stage per monitoring tick:

    monitor -> analyze -> plan -> register -> execute -> step

The monitor, analyzer and planner exchange immutable messages only. The
engine (the coordinator) registers each strategy in the knowledge base
and steps the stream; the executor reads the latest strategy from the
knowledge base and commands the stream through `apply_config`. The whole
event sequence is a pure function of (scenario config, seed).

Fail-safe rules: a faulted probe yields an "unknown" condition, which
never triggers adaptation; while the strategy registry is unavailable,
new strategies are dropped and the executor falls back to the config
the stream is committed to, leaving the stream running.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import SimulationError
from .kb import AdaptationSpace, AdaptationStrategy, KnowledgeBase, RunRecord
from .netsim import (
    BandwidthTrace,
    FaultSchedule,
    compute_threshold,
    generate_trace,
    probe,
    sample_indices,
)
from .scenario import ScenarioConfig
from .stream import StreamState
from .units import to_us

class Analyzer:
    """Analysis service: classifies samples against the threshold.

    Faulted samples are unknown. Ties go above-threshold (prefer the higher
    quality of service). With a hysteresis band, readings inside
    [threshold - band, threshold + band) keep the previous classification,
    suppressing flip-flop near the boundary; with band == 0 (the default)
    the bare threshold decides.
    """

    def __init__(self, threshold: float, hysteresis_band: float = 0.0):
        self.threshold = threshold
        self._above = threshold + hysteresis_band
        self._below = threshold - hysteresis_band
        self._last_kind: str | None = None

    def evaluate(self, sample: tuple[int, float, bool]) -> str:
        """The condition kind of a probe's `(t_us, upload_mbps, ok)`:
        "above-threshold", "below-threshold" or "unknown"."""
        _, upload, ok = sample
        if not ok:
            return "unknown"
        if upload >= self._above:
            kind = "above-threshold"
        elif upload < self._below:
            kind = "below-threshold"
        elif self._last_kind is not None:
            kind = self._last_kind
        else:
            kind = "above-threshold" if upload >= self.threshold else "below-threshold"
        self._last_kind = kind
        return kind


def plan(condition: str, space: AdaptationSpace) -> str | None:
    """The config a condition calls for; None for an unknown condition.

    Above-threshold selects the highest-frame-rate config, below-threshold
    the lowest; unknown conditions never trigger adaptation.
    """
    if condition == "above-threshold":
        return space.highest_rate_config.name
    if condition == "below-threshold":
        return space.lowest_rate_config.name
    return None


class Monitor:
    """Connection speed-test service: wraps the probe for the engine's ticks."""

    def __init__(
        self, trace: BandwidthTrace, faults: FaultSchedule, probe_noise_sd: float, probe_seed: int | str
    ):
        self._trace = trace
        self._faults = faults
        self._probe_noise_sd = probe_noise_sd
        self._probe_seed = probe_seed

    def tick(self, t_us: int) -> tuple[int, float, bool]:
        return probe(self._trace, self._faults, t_us, self._probe_noise_sd, self._probe_seed)


class Executor:
    """Adaptation execution service: turns the latest strategy into a stream command.

    Only the executor commands the stream. It holds no state: the stream
    owns the switch's delay and its `target`, the config it is committed
    to, which is the one being switched to while a switch is in flight.
    """

    def execute(
        self, kb: KnowledgeBase, stream: StreamState, registry_available: bool
    ) -> tuple[str, int | None, str | None, bool]:
        """The outcome `(source, strategy_id, target, applied)`, a plain tuple;
        `source` is "registry", or "fallback" while the registry is down."""
        if not registry_available:
            # Degraded mode: hold the committed configuration; never halt the stream.
            return ("fallback", None, stream.target, False)
        latest = kb.latest_strategy()
        if latest is None:
            return ("registry", None, None, False)
        if latest.target == stream.target:
            return ("registry", latest.id, latest.target, False)
        stream.apply_config(latest.target)
        return ("registry", latest.id, latest.target, True)


# A tick record is the stages' messages, plain tuples but the strategy:
# ((t_us, upload_mbps, ok), condition, strategy | None,
#  (source, strategy_id, target, applied), (reconfig_us, streamed_us, active)).
class Engine:
    """Drives the full loop over a scenario: one deterministic discrete-event clock."""

    def __init__(self, config: ScenarioConfig):
        # parse_scenario rules these out: at least one run, of positive length,
        # that ends on a tick, a delay of at least 0, a positive trace step, each
        # config name in the space, and a warmup window that starts at or after
        # 0 and selects a trace sample
        if config.runs < 1:
            raise SimulationError(f"runs must be at least 1, got {config.runs}")
        if config.run_duration_us <= 0:
            raise SimulationError(f"run duration must be positive, got {config.run_duration_us} us")
        if config.monitor_interval_us <= 0 or config.run_duration_us % config.monitor_interval_us:
            raise SimulationError(f"run duration {config.run_duration_us} us is not a whole number of ticks")
        for name in (config.initial_config, *(o.target for o in config.user_overrides)):
            if name not in config.space.names:
                raise SimulationError(f"config {name!r} is not in the adaptation space")
        if config.reconfig_delay_us < 0:
            raise SimulationError(f"reconfig delay must be non-negative, got {config.reconfig_delay_us} us")
        shape, warmup, seed = config.trace, config.warmup, config.seed
        if shape.step_us <= 0:
            raise SimulationError(f"trace step must be positive, got {shape.step_us} us")
        if warmup.start_s < 0:
            raise SimulationError(f"warmup window starts at {warmup.start_s:g} s, before the trace")
        if not sample_indices(to_us(warmup.start_s), to_us(warmup.end_s), shape.step_us):
            raise SimulationError(
                f"warmup window [{warmup.start_s:g}, {warmup.end_s:g}) s selects no trace sample"
            )
        self.config = config
        trace = generate_trace(shape, config.total_duration_us, f"{seed}/trace")
        # Same trace model, disjoint seed stream: the measurement period
        # preceding the experiment. The threshold averages only [start, end),
        # and a shorter trace is a prefix of a longer one on the same seed,
        # so the warmup trace stops at the window's end.
        warmup_trace = generate_trace(shape, to_us(warmup.end_s), f"{seed}/warmup")
        self.threshold_mbps = compute_threshold(warmup_trace, warmup.start_s, warmup.end_s)
        if self.threshold_mbps <= 0:
            raise SimulationError(
                f"warmup window [{warmup.start_s:g}, {warmup.end_s:g}) s "
                f"gives a threshold of 0 Mbps (the clamped trace is zero there); "
                f"move the window or raise trace.mean_mbps"
            )
        self.monitor = Monitor(
            trace=trace,
            faults=config.faults,
            probe_noise_sd=config.probe_noise_sd_mbps,
            probe_seed=f"{seed}/probe",
        )

    def run(self, write_run: Callable[[RunRecord, list[tuple]], None]) -> None:
        """Run every tick, calling `write_run(record, ticks)` as each run ends,
        runs in order.

        Each call starts from a fresh knowledge base, stream and analyzer, so
        a second call replays the first.
        """
        cfg = self.config
        adaptive = cfg.scenario == "adaptive"
        overrides = list(cfg.user_overrides)
        next_override = 0
        next_id = 1
        kb = KnowledgeBase()
        stream = StreamState(cfg.initial_config, cfg.reconfig_delay_us)
        # Looked up here, once per run, and not when the engine is built: a
        # stage rebound on its class or module after construction (as a
        # tracer or a test does) is still the one called.
        space = cfg.space
        tick = self.monitor.tick
        evaluate = Analyzer(self.threshold_mbps, cfg.hysteresis_mbps).evaluate
        execute = Executor().execute
        register = kb.register_strategy
        step = stream.step
        fault_active = cfg.faults.active
        interval_us = cfg.monitor_interval_us
        run_duration_us = cfg.run_duration_us

        for run_index in range(cfg.runs):
            ticks: list[tuple] = []
            add = ticks.append
            run_start_us = run_index * run_duration_us
            for t_us in range(run_start_us, run_start_us + run_duration_us, interval_us):
                sample = tick(t_us)
                condition = evaluate(sample)

                target = reason = None
                while next_override < len(overrides) and overrides[next_override].at_us <= t_us:
                    target, reason = overrides[next_override].target, "user-config"
                    next_override += 1
                if reason is None and adaptive:
                    target, reason = plan(condition, space), condition
                # The one strategy rule, for overrides and threshold decisions alike.
                strategy = None
                if target is not None and target != stream.target:
                    strategy = AdaptationStrategy(next_id, target, reason)

                registry_available = not fault_active("registry-unavailable", t_us)
                # Dropped while the registry is down: the outcome's source says which.
                if strategy is not None and registry_available:
                    register(strategy)
                    next_id += 1

                outcome = execute(kb, stream, registry_available)
                add((sample, condition, strategy, outcome, step(interval_us)))

            write_run(stream.finalize_run(run_index, run_duration_us), ticks)
