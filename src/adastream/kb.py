"""Domain types and the knowledge base, the adaptation-strategy registry.

The knowledge base holds the latest registered strategy, an immutable
value; the `register` lines of events.jsonl hold the history. The config
the stream is committed to is the stream's own `target`. A single
coordinator owns the instance; components reach it through that
coordinator only.
"""

from __future__ import annotations

from typing import NamedTuple

# Stored model parameters for per-frame quality, one per default config.
# Not derived from resolution; the metrics module consumes them as-is.
LR_QUALITY_SCORE = 0.99
HR_QUALITY_SCORE = 0.20


class StreamConfig(NamedTuple):
    """One point in the adaptation space: a (frame rate, quality) setting."""

    name: str
    frame_rate: int
    quality_score: float


class AdaptationSpace(NamedTuple):
    """The finite, ordered set of configurations the planner may select among.

    Built by `of`, which checks the configs. The planner's two targets are
    read every tick, so `of` computes them once; ties go to the first such
    config in order, as max/min pick it.
    """

    configs: tuple[StreamConfig, ...]
    names: tuple[str, ...]
    highest_rate_config: StreamConfig
    lowest_rate_config: StreamConfig

    @classmethod
    def of(cls, configs: tuple[StreamConfig, ...]) -> AdaptationSpace:
        if not configs:
            raise ValueError("adaptation space must not be empty")
        names = tuple(c.name for c in configs)
        if len(set(names)) != len(names):
            raise ValueError(f"config names must be unique, got {list(names)}")
        return cls(
            configs,
            names,
            max(configs, key=lambda c: c.frame_rate),
            min(configs, key=lambda c: c.frame_rate),
        )


def default_space() -> AdaptationSpace:
    """The default two-point adaptation space: low rate and high rate."""
    return AdaptationSpace.of(
        configs=(
            StreamConfig("LR", frame_rate=30, quality_score=LR_QUALITY_SCORE),
            StreamConfig("HR", frame_rate=60, quality_score=HR_QUALITY_SCORE),
        )
    )


class AdaptationStrategy(NamedTuple):
    """A decision to move the stream to a target configuration."""

    id: int
    target: str
    reason: str  # "below-threshold", "above-threshold" or "user-config"


class RunRecord(NamedTuple):
    """Per-run ledger: how the run's elapsed time was spent.

    Built by `of`, which checks that all counts and durations (integer
    microseconds) are non-negative, and that streamed time (summed over
    configs) plus reconfiguration time equals the run duration exactly.
    Every run the engine closes and every runs.csv row comes back through it.
    """

    run_index: int
    duration_us: int
    reconfig_us: int
    switches: int
    streamed_us: dict[str, int]

    @classmethod
    def of(
        cls, run_index: int, duration_us: int, reconfig_us: int, switches: int, streamed_us: dict[str, int]
    ) -> RunRecord:
        if run_index < 0 or switches < 0:
            raise ValueError(
                f"run index and switches must be non-negative, got {run_index} and {switches}"
            )
        if duration_us <= 0:
            raise ValueError(f"run duration must be positive, got {duration_us} us")
        if not 0 <= reconfig_us <= duration_us:
            raise ValueError(f"reconfig time {reconfig_us} us outside [0, {duration_us}] us")
        if any(us < 0 for us in streamed_us.values()):
            raise ValueError(f"run {run_index}: negative streamed time in {streamed_us}")
        streamed = sum(streamed_us.values())
        if streamed != duration_us - reconfig_us:
            raise ValueError(
                f"run {run_index}: time accounting broken: streamed {streamed} + reconfig "
                f"{reconfig_us} != duration {duration_us}"
            )
        return cls(run_index, duration_us, reconfig_us, switches, streamed_us)


class KnowledgeBase:
    """The latest registered strategy."""

    def __init__(self):
        self._latest: AdaptationStrategy | None = None

    def register_strategy(self, strategy: AdaptationStrategy) -> None:
        """Make `strategy` the latest. The engine issues the ids, each above the last."""
        self._latest = strategy

    def latest_strategy(self) -> AdaptationStrategy | None:
        """The last registered strategy, the highest id, or None before the first.

        This is the fault-tolerance fallback read path: it never fails, and
        absence is a value.
        """
        return self._latest
