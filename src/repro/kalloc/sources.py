"""Unmovable-source taxonomy and measurement (paper Fig. 6).

``SourceMix`` describes target proportions of unmovable memory per source;
``SOURCE_MIX_META`` encodes the fleet-wide breakdown the paper reports
(networking >73 %, slab 12 %, filesystems, page tables, ~4 % other).
``unmovable_breakdown`` measures the realised mix on a simulated machine by
scanning the per-frame source tags — the analogue of the paper's
allocation backtracing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..mm.page import AllocSource
from ..mm.physmem import PhysicalMemory


@dataclass(frozen=True)
class SourceMix:
    """Target fractions of unmovable memory per source (sum to 1)."""

    networking: float
    slab: float
    filesystem: float
    pagetable: float
    other: float

    def __post_init__(self) -> None:
        total = (self.networking + self.slab + self.filesystem
                 + self.pagetable + self.other)
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(f"source mix sums to {total}, not 1.0")


#: The fleet-wide unmovable source mix measured in the paper (Fig. 6).
SOURCE_MIX_META = SourceMix(
    networking=0.73,
    slab=0.12,
    filesystem=0.07,
    pagetable=0.04,
    other=0.04,
)


def unmovable_breakdown(mem: PhysicalMemory) -> dict[AllocSource, int]:
    """Count unmovable frames per allocation source.

    Returns a dict mapping each source to its unmovable frame count
    (USER appears only for pinned user pages).
    """
    unmovable = mem.unmovable_mask()
    out: dict[AllocSource, int] = {}
    for source in AllocSource:
        mask = unmovable & (mem.source == int(source))
        count = int(np.count_nonzero(mask))
        if count:
            out[source] = count
    return out
