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

from .kb import RunRecord


class StreamState:
    """Single-owner state of the streaming service, by config name. Not thread-safe."""

    def __init__(self, initial: str, reconfig_delay_us: int):
        self.reconfig_delay_us = reconfig_delay_us
        self.active = initial
        self.target = initial  # the committed config: `active` unless a switch is in flight
        self.reconfig_remaining_us = 0
        self.streamed_us: dict[str, int] = {}
        self.reconfig_us = 0
        self.switches = 0

    def apply_config(self, name: str) -> None:
        """Commit the stream to the config `name`; `step` completes the switch once its delay, even 0, has drained.

        A switch is in flight while delay remains or `target` differs from
        `active`. Applying the active config with no switch in flight is free.
        Applying during an in-flight switch replaces its target without
        extending the delay (no double-charging).
        """
        if not self.reconfig_remaining_us and self.target == self.active and name != self.active:
            self.reconfig_remaining_us = self.reconfig_delay_us
        self.target = name

    def step(self, dt_us: int) -> tuple[int, int, str]:
        """Advance the stream by dt. Reconfiguration drains before streaming resumes.

        How dt was spent, as a plain tuple: `(reconfig_us, streamed_us,
        active)`, reconfiguring, then streaming at `active`.
        """
        reconfig_used = 0
        remaining = dt_us
        active = self.active
        if self.reconfig_remaining_us or self.target != active:
            reconfig_used = min(self.reconfig_remaining_us, remaining)
            self.reconfig_remaining_us -= reconfig_used
            self.reconfig_us += reconfig_used
            remaining -= reconfig_used
            if not self.reconfig_remaining_us and self.target != active:
                self.switches += 1
                self.active = active = self.target
        if remaining > 0:
            self.streamed_us[active] = self.streamed_us.get(active, 0) + remaining
        return (reconfig_used, remaining, active)

    def finalize_run(self, run_index: int, duration_us: int) -> RunRecord:
        """Close the window through `RunRecord.of`, which checks it adds up to `duration_us`.

        The next window opens empty; a switch in flight carries across into it.
        """
        record = RunRecord.of(run_index, duration_us, self.reconfig_us, self.switches, self.streamed_us)
        self.streamed_us = {}
        self.reconfig_us = 0
        self.switches = 0
        return record
