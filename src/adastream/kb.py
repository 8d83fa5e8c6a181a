"""Domain types and the knowledge base, the adaptation-strategy registry.

The knowledge base is the one mutable store in the system. The strategies
it holds are immutable values, appended in order and never rewritten, so
any reader observes only fully-constructed entries. A single coordinator
owns the instance; components reach it through that coordinator only.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidRunError

# Stored model parameters for per-frame quality, one per default config.
# Not derived from resolution; the metrics module consumes them as-is.
LR_QUALITY_SCORE = 0.99
HR_QUALITY_SCORE = 0.20


class Frozen:
    """Base of an immutable value checked and built in __init__, through slots.

    Read-only, equal, hashed and shown by its first slot, and copied or
    pickled by rebuilding through __init__ from that slot.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        key = self.__slots__[0]
        return getattr(self, key) == getattr(other, key)

    def __hash__(self) -> int:
        return hash(getattr(self, self.__slots__[0]))

    def __repr__(self) -> str:
        key = self.__slots__[0]
        return f"{type(self).__name__}({key}={getattr(self, key)!r})"

    def __reduce__(self) -> tuple:
        return type(self), (getattr(self, self.__slots__[0]),)


class StreamConfig(NamedTuple):
    """One point in the adaptation space: a (frame rate, scale, quality) setting."""

    name: str
    frame_rate: int
    scale_w: int
    scale_h: int
    quality_score: float


class AdaptationSpace(Frozen):
    """The finite, ordered set of configurations the planner may select among.

    An immutable value, equal by `configs`. The planner's two targets are read
    every tick, so they are computed once here; ties go to the first such
    config in order, as max/min pick it.
    """

    __slots__ = ("configs", "names", "highest_rate_config", "lowest_rate_config")

    def __init__(self, configs: tuple[StreamConfig, ...]):
        if not configs:
            raise ValueError("adaptation space must not be empty")
        names = [c.name for c in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"config names must be unique, got {names}")
        init = object.__setattr__
        init(self, "configs", configs)
        init(self, "names", tuple(names))
        init(self, "highest_rate_config", max(configs, key=lambda c: c.frame_rate))
        init(self, "lowest_rate_config", min(configs, key=lambda c: c.frame_rate))

    def __contains__(self, name: str) -> bool:
        return name in self.names


def default_space() -> AdaptationSpace:
    """The default two-point adaptation space: low rate and high rate."""
    return AdaptationSpace(
        configs=(
            StreamConfig("LR", frame_rate=30, scale_w=320, scale_h=240, quality_score=LR_QUALITY_SCORE),
            StreamConfig("HR", frame_rate=60, scale_w=720, scale_h=480, quality_score=HR_QUALITY_SCORE),
        )
    )


class AdaptationStrategy(NamedTuple):
    """A timestamped decision to move the stream to a target configuration."""

    id: int
    issued_at_us: int
    target: str
    reason: str  # "below-threshold", "above-threshold" or "user-config"


class _RunRecordFields(NamedTuple):
    run_index: int
    scenario: str
    duration_us: int
    reconfig_us: int
    switches: int
    streamed_us: dict[str, int]


class RunRecord(_RunRecordFields):
    """Per-run ledger: how the run's elapsed time was spent.

    All counts and durations (integer microseconds) are non-negative, and
    streamed time (summed over configs) plus reconfiguration time equals the
    run duration exactly: the constructor enforces both, since runs.csv rows
    come back through it. A NamedTuple body may not define __new__, hence
    the fields base; _make builds through __new__ too, since _replace calls
    _make and NamedTuple's own _make skips __new__.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __new__(
        cls,
        run_index: int,
        scenario: str,
        duration_us: int,
        reconfig_us: int,
        switches: int,
        streamed_us: dict[str, int],
    ) -> RunRecord:
        if run_index < 0 or switches < 0:
            raise InvalidRunError(
                f"run index and switches must be non-negative, got {run_index} and {switches}"
            )
        if duration_us <= 0:
            raise InvalidRunError(f"run duration must be positive, got {duration_us} us")
        if not 0 <= reconfig_us <= duration_us:
            raise InvalidRunError(f"reconfig time {reconfig_us} us outside [0, {duration_us}] us")
        if any(us < 0 for us in streamed_us.values()):
            raise InvalidRunError(f"run {run_index}: negative streamed time in {streamed_us}")
        streamed = sum(streamed_us.values())
        if streamed != duration_us - reconfig_us:
            raise InvalidRunError(
                f"run {run_index}: time accounting broken: streamed {streamed} + reconfig "
                f"{reconfig_us} != duration {duration_us}"
            )
        return tuple.__new__(cls, (run_index, scenario, duration_us, reconfig_us, switches, streamed_us))

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
        """Append a strategy. The engine issues the ids, each above the last."""
        self._strategies.append(strategy)

    def latest_strategy(self) -> AdaptationStrategy | None:
        """The highest-id strategy, or None when the registry is empty.

        This is the fault-tolerance fallback read path: it never fails once
        the registry holds at least one entry, and absence is a value.
        """
        return self._strategies[-1] if self._strategies else None
