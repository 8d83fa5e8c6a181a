"""Exception types shared across the simulator: only those some caller names in an `except`."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRunError(SimulationError):
    """A run record violates its accounting contract (e.g. duration <= 0)."""


class ScenarioError(SimulationError):
    """A scenario config failed validation; carries every violation found."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
