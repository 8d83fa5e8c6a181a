"""Simulation time units.

All internal bookkeeping runs on integer microseconds so that time
accounting is exact (streamed + reconfiguring == elapsed, always).
Float seconds appear only at the boundaries: config files and CSV
exports, each converted by one of the helpers below.
"""

from __future__ import annotations

US_PER_SECOND = 1_000_000


def to_us(seconds: float) -> int:
    """Convert seconds to integer microseconds (nearest)."""
    return round(seconds * US_PER_SECOND)


def format_seconds(us: int) -> str:
    """Fixed six-decimal rendering of a non-negative microsecond count, for CSV output."""
    whole, frac = divmod(us, US_PER_SECOND)
    return f"{whole}.{frac:06d}"
