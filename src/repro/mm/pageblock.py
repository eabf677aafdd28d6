"""Pageblock (2 MiB) metadata: the migrate type of each block.

Linux tags every 2 MiB pageblock with a migrate type; the buddy allocator
tries to serve allocations from blocks of the matching type and *steals*
whole blocks on fallback.  A stolen block changes type, which is how a
single unmovable allocation can convert a movable pageblock and scatter
unmovable memory across the address space (paper §2.5).
"""

from __future__ import annotations

import numpy as np

from ..units import PAGEBLOCK_FRAMES
from .page import MigrateType
from .physmem import PhysicalMemory, load_column


class PageblockTable:
    """Per-pageblock migrate-type table over one :class:`PhysicalMemory`."""

    def __init__(self, mem: PhysicalMemory,
                 initial: MigrateType = MigrateType.MOVABLE) -> None:
        self.mem = mem
        self.types = np.full(mem.npageblocks, int(initial), dtype=np.int8)
        # Scalar view sharing the buffer; see PhysicalMemory for why.
        self._types_mv = memoryview(self.types)

    def snapshot(self) -> dict:
        return {"types": self.types}

    def restore(self, state) -> None:
        load_column(self.types, state["types"])

    def get(self, pfn: int) -> MigrateType:
        """Migrate type of the pageblock containing *pfn*."""
        return MigrateType(int(self.types[pfn // PAGEBLOCK_FRAMES]))

    def set(self, pfn: int, mt: MigrateType) -> None:
        """Set the migrate type of the pageblock containing *pfn*."""
        self.types[pfn // PAGEBLOCK_FRAMES] = int(mt)

    def set_block(self, block: int, mt: MigrateType) -> None:
        """Set the migrate type of pageblock index *block*."""
        self.types[block] = int(mt)

    def get_block(self, block: int) -> MigrateType:
        return MigrateType(int(self.types[block]))

    def count(self, mt: MigrateType) -> int:
        """Number of pageblocks currently tagged *mt*."""
        return int(np.count_nonzero(self.types == int(mt)))

    def counts(self) -> dict[MigrateType, int]:
        """Pageblock count per migrate type, one vectorised bincount."""
        c = np.bincount(self.types, minlength=len(MigrateType))
        return {mt: int(c[int(mt)]) for mt in MigrateType}

    def block_range(self, block: int) -> tuple[int, int]:
        """Frame range ``[start, end)`` of pageblock index *block*."""
        start = block * PAGEBLOCK_FRAMES
        return start, start + PAGEBLOCK_FRAMES
