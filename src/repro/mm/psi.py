"""Pressure Stall Information (PSI) tracking.

Linux's PSI reports the percentage of wall time tasks were stalled for lack
of a resource.  The paper extends memory PSI to be tracked *per region*
(movable / unmovable) and feeds those pressures into the Algorithm-1 region
resizer (§3.2).  This module provides the generic tracker; Contiguitas
instantiates one per region.
"""

from __future__ import annotations

from ..errors import ConfigurationError


class PsiTracker:
    """Exponentially-averaged stall-time percentage.

    Stalls are reported in ticks (simulated microseconds) as they happen;
    :meth:`sample` folds the accumulated stall time over the elapsed wall
    time into an exponential moving average, like PSI's ``avg10``.

    Args:
        halflife_ticks: time for the average to decay by half with no
            stalls (PSI's 10 s window, scaled to simulation time).
    """

    def __init__(self, halflife_ticks: float = 1_000_000.0) -> None:
        if halflife_ticks <= 0:
            raise ConfigurationError("halflife must be positive")
        self.halflife_ticks = halflife_ticks
        self._pending_stall = 0.0
        #: Current stall percentage in [0, 100].
        self.pressure = 0.0
        #: Lifetime totals, for reporting.
        self.total_stall_ticks = 0.0

    def record_stall(self, ticks: float) -> None:
        """Report *ticks* of time wasted waiting for memory."""
        if ticks < 0:
            raise ConfigurationError("stall time cannot be negative")
        self._pending_stall += ticks
        self.total_stall_ticks += ticks

    def sample(self, elapsed_ticks: float) -> float:
        """Fold pending stalls over *elapsed_ticks* of wall time into the
        average and return the updated pressure percentage."""
        if elapsed_ticks <= 0:
            return self.pressure
        instant = min(100.0, 100.0 * self._pending_stall / elapsed_ticks)
        self._pending_stall = 0.0
        # Per-interval decay factor with the configured half-life.
        decay = 0.5 ** (elapsed_ticks / self.halflife_ticks)
        self.pressure = decay * self.pressure + (1.0 - decay) * instant
        return self.pressure

    def snapshot(self) -> list[float]:
        return [self._pending_stall, self.pressure, self.total_stall_ticks]

    def restore(self, state: list[float]) -> None:
        self._pending_stall, self.pressure, self.total_stall_ticks = state
