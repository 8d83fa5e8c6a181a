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

from .kb import RunRecord


class StepOutcome(NamedTuple):
    """How one step's dt was spent: reconfiguring, then streaming at `active`."""

    reconfig_us: int
    streamed_us: int
    active: str


class StreamState:
    """Single-owner state of the streaming service, by config name. Not thread-safe."""

    def __init__(self, initial: str, reconfig_delay_us: int):
        self.reconfig_delay_us = reconfig_delay_us
        self.active = initial
        self.pending: str | None = None
        self.reconfig_remaining_us = 0
        self.streamed_us: dict[str, int] = {}
        self.reconfig_us = 0
        self.switches = 0

    def apply_config(self, name: str) -> None:
        """Open a switch to the config `name`; `step` completes it once its delay, even 0, has drained.

        Applying the already-active config with no switch in flight is free.
        Applying during an in-flight switch replaces the pending target
        without extending the delay (no double-charging).
        """
        if self.pending is not None:
            self.pending = name
        elif name != self.active:
            self.pending = name
            self.reconfig_remaining_us = self.reconfig_delay_us

    def step(self, dt_us: int) -> StepOutcome:
        """Advance the stream by dt. Reconfiguration drains before streaming resumes."""
        reconfig_used = 0
        remaining = dt_us
        active = self.active
        pending = self.pending
        if pending is not None:
            reconfig_used = min(self.reconfig_remaining_us, remaining)
            self.reconfig_remaining_us -= reconfig_used
            self.reconfig_us += reconfig_used
            remaining -= reconfig_used
            if self.reconfig_remaining_us == 0:
                if pending != active:
                    self.switches += 1
                self.active = active = pending
                self.pending = None
        if remaining > 0:
            self.streamed_us[active] = self.streamed_us.get(active, 0) + remaining
        return StepOutcome(reconfig_used, remaining, active)

    def finalize_run(self, scenario: str, run_index: int, duration_us: int) -> RunRecord:
        """Close the window through `RunRecord.of`, which checks it adds up to `duration_us`.

        The next window opens empty; a switch in flight carries across into it.
        """
        record = RunRecord.of(
            run_index, scenario, duration_us, self.reconfig_us, self.switches, self.streamed_us
        )
        self.streamed_us = {}
        self.reconfig_us = 0
        self.switches = 0
        return record
