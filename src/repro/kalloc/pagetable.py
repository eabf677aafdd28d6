"""Page-table page allocation model.

Page tables store virtual→physical translations and are themselves
unmovable kernel pages (paper §2.5).  Their count tracks the mapped
address-space size: one 4 KiB leaf table (PTE level) covers 2 MiB of
mappings, one PMD table covers 1 GiB, and so on up the radix tree.  A
workload that maps its footprint with 4 KiB pages therefore allocates
~512x more leaf tables than one backed by 2 MiB pages — huge pages shrink
this unmovable source too.
"""

from __future__ import annotations

from ..mm.handle import HandleTable, PageHandle
from ..mm.page import AllocSource, MigrateType
from ..mm.sections import int64, rows_of
from ..telemetry import tracepoint
from ..units import PAGEBLOCK_FRAMES

_tp_table = tracepoint("kalloc.pagetable.alloc")

#: Translation entries per 4 KiB table (x86-64: 512 8-byte entries).
ENTRIES_PER_TABLE = 512


class PageTableAllocator:
    """Allocates page-table pages proportional to mapped memory.

    ``on_map(nframes, leaf_level)`` is called by workloads as they fault
    memory in; the allocator lazily grows the table tree.  ``leaf_level``
    is 0 for 4 KiB mappings (PTE leaves needed) and 1 for 2 MiB mappings
    (leaf entries live in the PMD, skipping one level).
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self._tables: list[PageHandle] = []
        self._mapped_frames = 0

    def snapshot(self, table: HandleTable) -> dict:
        return {"tables": int64(table.rows(self._tables)),
                "mapped_frames": self._mapped_frames}

    def restore(self, state, handles: list[PageHandle]) -> None:
        self._tables = [handles[row] for row in rows_of(state["tables"],
                                                        len(handles))]
        self._mapped_frames = state["mapped_frames"]

    @property
    def nr_tables(self) -> int:
        return len(self._tables)

    def on_map(self, nframes: int, leaf_level: int = 0) -> None:
        """Account for *nframes* newly mapped frames and allocate any
        page-table pages the mapping tree now needs."""
        self._mapped_frames += nframes
        while self.nr_tables < self._tables_needed(leaf_level):
            self._tables.append(self.kernel.alloc_pages(
                order=0,
                source=AllocSource.PAGETABLE,
                migratetype=MigrateType.UNMOVABLE,
            ))
            if _tp_table.enabled:
                _tp_table.emit(pfn=self._tables[-1].pfn,
                               tables=self.nr_tables,
                               mapped_frames=self._mapped_frames)

    def on_unmap(self, nframes: int) -> None:
        """Account for unmapping 4 KiB mappings; empty tables are
        freed."""
        self._mapped_frames = max(0, self._mapped_frames - nframes)
        while self.nr_tables > self._tables_needed(0):
            self.kernel.free_pages(self._tables.pop())

    def _tables_needed(self, leaf_level: int) -> int:
        """Tables in a radix tree covering the current mapped footprint."""
        # Leaf tables: one per 512 mappings at the leaf granularity.
        mappings = self._mapped_frames
        if leaf_level == 1:
            mappings = -(-mappings // PAGEBLOCK_FRAMES)  # 2 MiB entries
        total = 0
        level_entries = mappings
        while level_entries > 0:
            tables = -(-level_entries // ENTRIES_PER_TABLE)
            total += tables
            level_entries = tables if tables > 1 else 0
        return max(total, 1) if self._mapped_frames else 0
