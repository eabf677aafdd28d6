"""Memory compaction: consolidate movable pages to create contiguity.

Mirrors Linux's compaction design (paper §2.1): a *migration scanner* walks
from the low end of the managed range collecting movable allocated pages,
and a *free scanner* supplies free target pages from the high end.  Each
moved page pays the full software-migration downtime (TLB shootdown + copy),
which the compactor accounts so benchmarks can report the cost.

Unmovable allocations are skipped — the fundamental limitation the paper
quantifies: one unmovable 4 KiB page poisons its whole 2 MiB block, and no
amount of compaction recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..telemetry import tracepoint
from ..units import MAX_ORDER
from . import vmstat as ev
from .buddy import BuddyAllocator
from .handle import HandleRegistry
from ..errors import MigrationError
from .migrate import MigrationCostModel, can_migrate_sw, migrate_with_retry
from .physmem import PhysicalMemory

_tp_start = tracepoint("mm.compact.start")
_tp_finish = tracepoint("mm.compact.finish")
_tp_migrate = tracepoint("mm.compact.migrate")


@dataclass
class CompactionResult:
    """Outcome of one compaction run."""

    satisfied: bool = False
    pages_migrated: int = 0
    pages_skipped_unmovable: int = 0
    #: Frames whose migration failed transiently (pin/busy) even after
    #: the bounded retry in :func:`~repro.mm.migrate.migrate_with_retry`;
    #: they stay in place for this run but remain movable for the next.
    pages_failed_transient: int = 0
    downtime_cycles: int = 0
    blocks_scanned: int = 0

    def snapshot(self) -> dict:
        """Uniform machine-readable view (the telemetry surface)."""
        return {
            "satisfied": self.satisfied,
            "pages_migrated": self.pages_migrated,
            "pages_skipped_unmovable": self.pages_skipped_unmovable,
            "pages_failed_transient": self.pages_failed_transient,
            "downtime_cycles": self.downtime_cycles,
            "blocks_scanned": self.blocks_scanned,
        }

    def merge(self, other: "CompactionResult") -> None:
        self.satisfied = self.satisfied or other.satisfied
        self.pages_migrated += other.pages_migrated
        self.pages_skipped_unmovable += other.pages_skipped_unmovable
        self.pages_failed_transient += other.pages_failed_transient
        self.downtime_cycles += other.downtime_cycles
        self.blocks_scanned += other.blocks_scanned


@dataclass
class Compactor:
    """Compaction driver over one buddy allocator.

    Args:
        mem: backing physical memory.
        stat: event counter.
        cost: software-migration cost model.
        victim_cores: remote TLBs shot down per migration (cores - 1 on the
            simulated machine); drives the downtime accounting.
    """

    mem: PhysicalMemory
    stat: object
    cost: MigrationCostModel = field(default_factory=MigrationCostModel)
    victim_cores: int = 7

    def compact(
        self,
        allocator: BuddyAllocator,
        handles: HandleRegistry,
        target_order: int = MAX_ORDER,
        max_migrations: int | None = None,
    ) -> CompactionResult:
        """Run compaction until a free block of *target_order* exists (or
        the scanners meet / the migration budget is exhausted).

        Returns a :class:`CompactionResult`; ``satisfied`` reports whether a
        free block of the target order is available afterwards.
        """
        self.stat.inc(ev.COMPACT_RUNS)
        if _tp_start.enabled:
            _tp_start.emit(target_order=target_order, label=allocator.label)
        result = CompactionResult()
        mem = self.mem

        # The free scanner's lowest capture so far; the migration scanner
        # stops when it reaches it (the two scanners "meet", as in Linux).
        free_scan_floor = allocator.end_block

        # Blocks with no allocated heads at all can be skipped without a
        # per-block scan.  The precompute stays valid for every block the
        # migration scanner has yet to reach: migrations only ever move
        # heads *into* blocks at or above ``free_scan_floor``, which the
        # scanner stops short of, and frees only clear heads in blocks
        # already scanned.
        occupied = (mem.alloc_order[allocator.start_pfn:allocator.end_pfn]
                    >= 0).reshape(-1, 1 << MAX_ORDER).any(axis=1)

        for block in range(allocator.start_block, allocator.end_block):
            if block >= free_scan_floor:
                break
            if allocator.largest_free_order() >= target_order:
                break
            result.blocks_scanned += 1
            if not occupied[block - allocator.start_block]:
                continue
            start = block * (1 << MAX_ORDER)
            end = start + (1 << MAX_ORDER)
            heads = (np.flatnonzero(mem.alloc_order[start:end] >= 0)
                     + start).tolist()
            for src in heads:
                if max_migrations is not None and (
                        result.pages_migrated >= max_migrations):
                    result.satisfied = (
                        allocator.largest_free_order() >= target_order)
                    return self._finish(result)
                info = mem.allocation_info(src)
                if not can_migrate_sw(info):
                    result.pages_skipped_unmovable += info.nframes
                    continue
                dst = self._take_free_above(allocator, info.order, src)
                if dst is None:
                    continue
                free_scan_floor = min(free_scan_floor,
                                      self.mem.pageblock_of(dst))
                try:
                    migrate_with_retry(mem, src, dst, stat=self.stat)
                except MigrationError:
                    # Transient pin/busy persisted across the retry
                    # budget: return the captured destination and leave
                    # the page for the next run.
                    allocator.free_block(dst, info.order)
                    result.pages_failed_transient += info.nframes
                    self.stat.inc(ev.COMPACT_FAIL, info.nframes)
                    continue
                allocator.free_block(src, info.order)
                handles.relocate(src, dst)
                result.pages_migrated += info.nframes
                result.downtime_cycles += self.cost.downtime_cycles(
                    self.victim_cores, info.nframes)
                self.stat.inc(ev.COMPACT_MIGRATED, info.nframes)
                self.stat.inc(ev.TLB_SHOOTDOWNS)
                if _tp_migrate.enabled:
                    _tp_migrate.emit(src=src, dst=dst, frames=info.nframes)

        result.satisfied = allocator.largest_free_order() >= target_order
        return self._finish(result)

    @staticmethod
    def _finish(result: CompactionResult) -> CompactionResult:
        if _tp_finish.enabled:
            _tp_finish.emit(**result.snapshot())
        return result

    def _take_free_above(
        self, allocator: BuddyAllocator, order: int, above_pfn: int,
    ) -> int | None:
        """Capture a free sub-block of exactly *order* whose head PFN is the
        highest available strictly above *above_pfn* (the free scanner).

        Single vectorised pass over the packed ``free_order`` array in
        place of peeking every (order, migratetype) list: the winner is
        the highest head at *any* qualifying order, which is exactly
        what the per-list peeks computed.
        """
        lo = max(above_pfn + 1, allocator.start_pfn)
        hi = allocator.end_pfn
        if lo >= hi:
            return None
        cand = np.flatnonzero(allocator.mem.free_order[lo:hi] >= order)
        if cand.size == 0:
            return None
        # Capture and split; the remainder returns to the free lists.
        return allocator.take_free_split(int(cand[-1]) + lo, order)