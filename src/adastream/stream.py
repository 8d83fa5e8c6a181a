"""The managed resource: a simulated video stream.

The stream emits frames per its active configuration and pays a fixed
delay whenever the configuration changes; while a change is in flight
nothing is streamed, so every elapsed microsecond lands in exactly one
bucket (streamed at some config, or reconfiguring).

Runs are measurement windows, not adaptation boundaries: a reconfiguration
may straddle a run boundary, in which case each run's ledger is charged
only the part of the delay that elapsed inside it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidRunError
from .kb import RunRecord, StreamConfig


class StepOutcome(NamedTuple):
    """How one step's dt was spent: reconfiguring, then streaming segments."""

    reconfig_us: int
    segments: tuple[tuple[str, int], ...]
    completed_switch: bool


class StreamState:
    """Single-owner state of the streaming service. Not thread-safe."""

    def __init__(self, initial: StreamConfig):
        self.active = initial
        self.pending: StreamConfig | None = None
        self.reconfig_remaining_us = 0
        self.clock_us = 0
        self.streamed_us: dict[str, int] = {}
        self.reconfig_us = 0
        self.switches = 0

    @property
    def effective_config(self) -> StreamConfig:
        """The configuration the stream is committed to: pending if a switch is in flight."""
        return self.pending if self.pending is not None else self.active

    def apply_config(self, target: StreamConfig, reconfig_delay_us: int) -> bool:
        """Command the stream to move to `target`.

        Applying the already-active config with no switch in flight is free.
        Applying during an in-flight switch replaces the pending target
        without extending the delay (no double-charging). Returns True when
        the command changed the stream's committed target.
        """
        if reconfig_delay_us < 0:
            raise ValueError(f"reconfig delay must be non-negative, got {reconfig_delay_us}")
        if self.pending is not None:
            if target.name == self.pending.name:
                return False
            self.pending = target
            return True
        if target.name == self.active.name:
            return False
        if reconfig_delay_us == 0:
            self.active = target
            self.switches += 1
            return True
        self.pending = target
        self.reconfig_remaining_us = reconfig_delay_us
        return True

    def step(self, dt_us: int) -> StepOutcome:
        """Advance the stream by dt. Reconfiguration drains before streaming resumes."""
        if dt_us <= 0:
            raise ValueError(f"dt must be positive, got {dt_us}")
        reconfig_used = 0
        completed = False
        remaining = dt_us
        if self.reconfig_remaining_us > 0:
            reconfig_used = min(self.reconfig_remaining_us, remaining)
            self.reconfig_remaining_us -= reconfig_used
            self.reconfig_us += reconfig_used
            self.clock_us += reconfig_used
            remaining -= reconfig_used
            if self.reconfig_remaining_us == 0:
                assert self.pending is not None
                if self.pending.name != self.active.name:
                    self.switches += 1
                self.active = self.pending
                self.pending = None
                completed = True
        segments: tuple[tuple[str, int], ...] = ()
        if remaining > 0:
            name = self.active.name
            self.streamed_us[name] = self.streamed_us.get(name, 0) + remaining
            self.clock_us += remaining
            segments = ((name, remaining),)
        return StepOutcome(reconfig_used, segments, completed)

    def finalize_run(self, scenario: str, run_index: int, expected_duration_us: int) -> RunRecord:
        """Close out the current measurement window as a RunRecord.

        The clock must sit exactly at the configured run duration; the
        record's accounting identity is checked by RunRecord itself.
        """
        if self.clock_us != expected_duration_us:
            raise InvalidRunError(
                f"run {run_index}: clock {self.clock_us}us != configured duration "
                f"{expected_duration_us}us"
            )
        return RunRecord(
            run_index=run_index,
            scenario=scenario,
            duration_us=self.clock_us,
            reconfig_us=self.reconfig_us,
            switches=self.switches,
            streamed_us=dict(self.streamed_us),
        )

    def start_run(self) -> None:
        """Reset per-run accounting, carrying the in-flight switch across the boundary."""
        self.clock_us = 0
        self.streamed_us = {}
        self.reconfig_us = 0
        self.switches = 0
