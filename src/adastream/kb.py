"""Domain types and the knowledge base, the adaptation-strategy registry.

The knowledge base is the one mutable store in the system. The strategies
it holds are immutable values, appended in order and never rewritten, so
any reader observes only fully-constructed entries. A single coordinator
owns the instance; components reach it through that coordinator only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidRunError, NonMonotonicIdError

STRATEGY_REASONS = ("below-threshold", "above-threshold", "user-config")

# Stored model parameters for per-frame quality, one per default config.
# Not derived from resolution; the metrics module consumes them as-is.
LR_QUALITY_SCORE = 0.99
HR_QUALITY_SCORE = 0.20


@dataclass(frozen=True)
class StreamConfig:
    """One point in the adaptation space: a (frame rate, scale, quality) setting."""

    name: str
    frame_rate: int
    scale_w: int
    scale_h: int
    quality_score: float

    def __post_init__(self) -> None:
        if self.frame_rate <= 0:
            raise ValueError(f"frame_rate must be positive, got {self.frame_rate}")
        if self.scale_w <= 0 or self.scale_h <= 0:
            raise ValueError(f"scale must be positive, got {self.scale_w}x{self.scale_h}")
        if not 0.0 <= self.quality_score <= 1.0:
            raise ValueError(f"quality_score must be in [0, 1], got {self.quality_score}")


@dataclass(frozen=True)
class AdaptationSpace:
    """The finite, ordered set of configurations the planner may select among."""

    configs: tuple[StreamConfig, ...]

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("adaptation space must not be empty")
        names = [c.name for c in self.configs]
        if len(set(names)) != len(names):
            raise ValueError(f"config names must be unique, got {names}")

    # The planner's two targets and the name lookup are read every tick.
    # configs is frozen, so each is computed once on first use; ties go to
    # the first such config in order, as max/min pick it.
    @cached_property
    def highest_rate_config(self) -> StreamConfig:
        return max(self.configs, key=lambda c: c.frame_rate)

    @cached_property
    def lowest_rate_config(self) -> StreamConfig:
        return min(self.configs, key=lambda c: c.frame_rate)

    @cached_property
    def _by_name(self) -> dict[str, StreamConfig]:
        return {c.name: c for c in self.configs}

    @property
    def max_frame_rate(self) -> int:
        # The cached highest-rate config's; configs is frozen, so it cannot go stale.
        return self.highest_rate_config.frame_rate

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.configs)

    def config(self, name: str) -> StreamConfig:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown config {name!r}; space has {list(self.names)}") from None

    def __contains__(self, name: object) -> bool:
        try:
            return name in self._by_name
        except TypeError:  # unhashable, so equal to no name
            return False


def default_space() -> AdaptationSpace:
    """The default two-point adaptation space: low rate and high rate."""
    return AdaptationSpace(
        configs=(
            StreamConfig("LR", frame_rate=30, scale_w=320, scale_h=240, quality_score=LR_QUALITY_SCORE),
            StreamConfig("HR", frame_rate=60, scale_w=720, scale_h=480, quality_score=HR_QUALITY_SCORE),
        )
    )


@dataclass(frozen=True)
class AdaptationStrategy:
    """A timestamped decision to move the stream to a target configuration."""

    id: int
    issued_at_us: int
    target: str
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in STRATEGY_REASONS:
            raise ValueError(f"reason must be one of {STRATEGY_REASONS}, got {self.reason!r}")


@dataclass(frozen=True)
class RunRecord:
    """Per-run ledger: how the run's elapsed time was spent.

    All durations are integer microseconds. The constructor enforces the
    accounting identity: streamed seconds (summed over configs) plus
    reconfiguration time must equal the run duration exactly.
    """

    run_index: int
    scenario: str
    duration_us: int
    reconfig_us: int
    switches: int
    streamed_us: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise InvalidRunError(f"run duration must be positive, got {self.duration_us} us")
        if not 0 <= self.reconfig_us <= self.duration_us:
            raise InvalidRunError(
                f"reconfig time {self.reconfig_us} us outside [0, {self.duration_us}] us"
            )
        streamed = sum(self.streamed_us.values())
        if streamed != self.duration_us - self.reconfig_us:
            raise InvalidRunError(
                f"run {self.run_index}: time accounting broken: streamed {streamed} + reconfig "
                f"{self.reconfig_us} != duration {self.duration_us}"
            )

    @property
    def streamed_total_us(self) -> int:
        return sum(self.streamed_us.values())


class KnowledgeBase:
    """Append-only strategy registry, plus the last applied config for fallback."""

    def __init__(self, last_applied: str | None = None):
        self._strategies: list[AdaptationStrategy] = []
        self.last_applied = last_applied

    @property
    def strategies(self) -> tuple[AdaptationStrategy, ...]:
        return tuple(self._strategies)

    def register_strategy(self, strategy: AdaptationStrategy) -> None:
        """Append a strategy. Ids must strictly increase in insertion order."""
        if self._strategies and strategy.id <= self._strategies[-1].id:
            raise NonMonotonicIdError(
                f"strategy id {strategy.id} not greater than last id {self._strategies[-1].id}"
            )
        self._strategies.append(strategy)

    def latest_strategy(self) -> AdaptationStrategy | None:
        """The highest-id strategy, or None when the registry is empty.

        This is the fault-tolerance fallback read path: it never fails once
        the registry holds at least one entry, and absence is a value.
        """
        return self._strategies[-1] if self._strategies else None
