"""Per-region memory pressure (paper §3.2).

Contiguitas extends the kernel's PSI to track time wasted for lack of free
memory in the movable and unmovable regions *separately*; the two pressure
numbers feed Algorithm 1.  This wrapper owns one
:class:`~repro.mm.psi.PsiTracker` per region plus the sampling plumbing.
"""

from __future__ import annotations

from enum import Enum

from ..mm.psi import PsiTracker


class Region(Enum):
    """The two Contiguitas regions."""

    MOVABLE = "movable"
    UNMOVABLE = "unmovable"


class RegionPressure:
    """PSI trackers for both regions, sampled together."""

    def __init__(self, halflife_ticks: float = 1_000_000.0) -> None:
        self._trackers = {
            region: PsiTracker(halflife_ticks) for region in Region
        }

    def snapshot(self) -> dict[str, list[float]]:
        return {region.value: tracker.snapshot()
                for region, tracker in self._trackers.items()}

    def restore(self, state: dict[str, list[float]]) -> None:
        for region, tracker in self._trackers.items():
            tracker.restore(state[region.value])

    def record_stall(self, region: Region, ticks: float) -> None:
        """Report stall time attributed to *region*."""
        self._trackers[region].record_stall(ticks)

    def sample(self, elapsed_ticks: float) -> dict[Region, float]:
        """Fold pending stalls into both averages; returns the pressures."""
        return {
            region: tracker.sample(elapsed_ticks)
            for region, tracker in self._trackers.items()
        }

    def pressure(self, region: Region) -> float:
        """Current stall percentage for *region* (0–100)."""
        return self._trackers[region].pressure

    @property
    def movable(self) -> float:
        return self.pressure(Region.MOVABLE)

    @property
    def unmovable(self) -> float:
        return self.pressure(Region.UNMOVABLE)
