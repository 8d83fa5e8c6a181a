"""Exception types shared across the simulator."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class NonMonotonicIdError(SimulationError):
    """A strategy id did not exceed every id already in the registry."""


class InvalidRunError(SimulationError):
    """A run record violates its accounting contract (e.g. duration <= 0)."""


class OutOfRangeError(SimulationError):
    """A timestamp falls outside the trace it is being looked up in."""


class EmptyWindowError(SimulationError):
    """A threshold window selects no trace samples."""


class InvalidTraceError(SimulationError):
    """Trace generator parameters are out of their valid domain."""


class ScenarioError(SimulationError):
    """A scenario config failed validation; carries every violation found."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
