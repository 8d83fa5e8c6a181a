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

from .kb import RunRecord, StreamConfig


class StepOutcome(NamedTuple):
    """How one step's dt was spent: reconfiguring, then streaming segments."""

    reconfig_us: int
    segments: tuple[tuple[str, int], ...]


class StreamState:
    """Single-owner state of the streaming service. Not thread-safe."""

    def __init__(self, initial: StreamConfig):
        self.active = initial
        self.pending: StreamConfig | None = None
        self.reconfig_remaining_us = 0
        self.streamed_us: dict[str, int] = {}
        self.reconfig_us = 0
        self.switches = 0

    def apply_config(self, target: StreamConfig, reconfig_delay_us: int) -> None:
        """Command the stream to move to `target`.

        Applying the already-active config with no switch in flight is free.
        Applying during an in-flight switch replaces the pending target
        without extending the delay (no double-charging).
        """
        if reconfig_delay_us < 0:
            raise ValueError(f"reconfig delay must be non-negative, got {reconfig_delay_us}")
        if self.pending is not None:
            self.pending = target
        elif target.name != self.active.name:
            if reconfig_delay_us == 0:
                self.active = target
                self.switches += 1
            else:
                self.pending = target
                self.reconfig_remaining_us = reconfig_delay_us

    def step(self, dt_us: int) -> StepOutcome:
        """Advance the stream by dt. Reconfiguration drains before streaming resumes."""
        if dt_us <= 0:
            raise ValueError(f"dt must be positive, got {dt_us}")
        reconfig_used = 0
        remaining = dt_us
        if self.reconfig_remaining_us > 0:
            reconfig_used = min(self.reconfig_remaining_us, remaining)
            self.reconfig_remaining_us -= reconfig_used
            self.reconfig_us += reconfig_used
            remaining -= reconfig_used
            if self.reconfig_remaining_us == 0:
                assert self.pending is not None
                if self.pending.name != self.active.name:
                    self.switches += 1
                self.active = self.pending
                self.pending = None
        segments: tuple[tuple[str, int], ...] = ()
        if remaining > 0:
            name = self.active.name
            self.streamed_us[name] = self.streamed_us.get(name, 0) + remaining
            segments = ((name, remaining),)
        return StepOutcome(reconfig_used, segments)

    def finalize_run(self, scenario: str, run_index: int, duration_us: int) -> RunRecord:
        """Close out the window as a RunRecord, which checks it adds up to `duration_us`."""
        return RunRecord(
            run_index=run_index,
            scenario=scenario,
            duration_us=duration_us,
            reconfig_us=self.reconfig_us,
            switches=self.switches,
            streamed_us=dict(self.streamed_us),
        )

    def start_run(self) -> None:
        """Reset per-run accounting, carrying the in-flight switch across the boundary."""
        self.streamed_us = {}
        self.reconfig_us = 0
        self.switches = 0
