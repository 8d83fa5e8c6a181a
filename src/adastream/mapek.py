"""The autonomic controller: Monitor, Analyzer, Planner, Executor over a
shared knowledge base.

The engine drives the components in-process on a discrete clock, one
message hop per pipeline stage per monitoring tick:

    monitor -> analyze -> plan -> register -> execute -> step

Components exchange immutable messages only and never share mutable
state; the knowledge base is touched solely by the engine (the
coordinator). The whole event sequence is a pure function of
(scenario config, seed).

Fail-safe rules: a faulted probe yields an "unknown" condition, which
never triggers adaptation; while the strategy registry is unavailable,
new strategies are dropped and the executor falls back to the last
applied configuration from the knowledge base, leaving the stream
running.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol

from .errors import SimulationError
from .kb import AdaptationSpace, AdaptationStrategy, KnowledgeBase, RunRecord
from .netsim import (
    BandwidthTrace,
    FaultSchedule,
    SpeedSample,
    compute_threshold,
    generate_trace,
    probe,
)
from .scenario import ScenarioConfig, TraceParams
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

    def evaluate(self, sample: SpeedSample) -> str:
        """The condition kind: "above-threshold", "below-threshold" or "unknown"."""
        if not sample.ok:
            return "unknown"
        upload = sample.upload_mbps
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

    def tick(self, t_us: int) -> SpeedSample:
        return probe(self._trace, self._faults, t_us, self._probe_noise_sd, self._probe_seed)


class ExecuteOutcome(NamedTuple):
    source: str  # "registry" | "fallback"
    strategy_id: int | None
    target: str | None
    applied: bool


class Executor:
    """Adaptation execution service: turns the latest strategy into a stream command.

    Only the executor commands the stream, and it records each command in
    `kb.last_applied`: the config the stream is committed to, the pending
    one while a switch is in flight.
    """

    def __init__(self, reconfig_delay_us: int):
        self._reconfig_delay_us = reconfig_delay_us

    def execute(self, kb: KnowledgeBase, stream: StreamState, registry_available: bool) -> ExecuteOutcome:
        if not registry_available:
            # Degraded mode: hold the last-known configuration; never halt the stream.
            return ExecuteOutcome("fallback", None, kb.last_applied, False)
        latest = kb.latest_strategy()
        if latest is None:
            return ExecuteOutcome("registry", None, None, False)
        if latest.target == kb.last_applied:
            return ExecuteOutcome("registry", latest.id, latest.target, False)
        stream.apply_config(latest.target, self._reconfig_delay_us)
        kb.last_applied = latest.target
        return ExecuteOutcome("registry", latest.id, latest.target, True)


# A tick record is the stages' messages: (sample, condition, strategy | None, outcome, dt_us, step).
class EventSink(Protocol):
    def write_run(self, run_index: int, ticks: list[tuple]) -> None:
        """Take one run's tick records in order, runs in order."""


class EngineResult(NamedTuple):
    records: tuple[RunRecord, ...]
    kb: KnowledgeBase
    threshold_mbps: float


def trace_for(shape: TraceParams, duration_us: int, seed: str) -> BandwidthTrace:
    """The scenario's bandwidth trace model over [0, duration_us) on one seed stream."""
    return generate_trace(
        mean=shape.mean_mbps,
        amplitude=shape.amplitude_mbps,
        period=shape.period_s,
        noise_sd=shape.noise_sd_mbps,
        duration_us=duration_us,
        step_us=shape.step_us,
        seed=seed,
    )


class Engine:
    """Drives the full loop over a scenario: one deterministic discrete-event clock."""

    def __init__(self, config: ScenarioConfig):
        # parse_scenario rules these out: a run ends on a tick, and each config name is in the space
        if config.monitor_interval_us <= 0 or config.run_duration_us % config.monitor_interval_us:
            raise SimulationError(f"run duration {config.run_duration_us} us is not a whole number of ticks")
        for name in (config.initial_config, *(o.target for o in config.user_overrides)):
            if name not in config.space:
                raise SimulationError(f"config {name!r} is not in the adaptation space")
        self.config = config
        shape, warmup, seed = config.trace, config.warmup, config.seed
        self.trace = trace_for(shape, config.total_duration_us, f"{seed}/trace")
        # Same trace model, disjoint seed stream: the measurement period
        # preceding the experiment. The threshold averages only [start, end),
        # and a shorter trace is a prefix of a longer one on the same seed,
        # so the warmup trace stops at the window's end.
        warmup_trace = trace_for(shape, max(to_us(warmup.end_s), shape.step_us), f"{seed}/warmup")
        self.threshold_mbps = compute_threshold(warmup_trace, warmup.start_s, warmup.end_s)
        if self.threshold_mbps <= 0:
            raise SimulationError(
                f"warmup window [{warmup.start_s:g}, {warmup.end_s:g}) s "
                f"gives a threshold of 0 Mbps (the clamped trace is zero there); "
                f"move the window or raise trace.mean_mbps"
            )
        self.kb = KnowledgeBase(last_applied=config.initial_config)
        self.stream = StreamState(config.initial_config)
        self.monitor = Monitor(
            trace=self.trace,
            faults=config.faults,
            probe_noise_sd=config.probe_noise_sd_mbps,
            probe_seed=f"{seed}/probe",
        )
        self.analyzer = Analyzer(self.threshold_mbps, config.hysteresis_mbps)
        self.executor = Executor(config.reconfig_delay_us)
        self._ran = False

    def run(self, sink: EventSink) -> EngineResult:
        """Run every tick, handing each run's tick records to `sink` as the run ends."""
        if self._ran:
            raise SimulationError("engine already ran; build a fresh Engine to replay")
        self._ran = True

        cfg = self.config
        adaptive = cfg.mode == "adaptive"
        overrides = list(cfg.user_overrides)
        next_override = 0
        next_id = 1
        records: list[RunRecord] = []
        # Looked up here, once per run, and not when the engine is built: a
        # stage rebound on its class or module after construction (as a
        # tracer or a test does) is still the one called.
        space, kb, stream = cfg.space, self.kb, self.stream
        tick = self.monitor.tick
        evaluate = self.analyzer.evaluate
        execute = self.executor.execute
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
                if target is not None and target != kb.last_applied:
                    strategy = AdaptationStrategy(next_id, t_us, target, reason)

                registry_available = not fault_active("registry-unavailable", t_us)
                # Dropped while the registry is down: the outcome's source says which.
                if strategy is not None and registry_available:
                    register(strategy)
                    next_id += 1

                outcome = execute(kb, stream, registry_available)
                add((sample, condition, strategy, outcome, interval_us, step(interval_us)))

            records.append(stream.finalize_run(cfg.scenario, run_index, run_duration_us))
            sink.write_run(run_index, ticks)

        return EngineResult(records=tuple(records), kb=self.kb, threshold_mbps=self.threshold_mbps)
