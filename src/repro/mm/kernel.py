"""The simulated kernel: allocation API, slow paths, THP, HugeTLB.

:class:`LinuxKernel` is the baseline system the paper measures against —
one buddy allocator over all of physical memory, migrate-type free lists
with fallback stealing, direct reclaim and compaction in the allocation
slow path, THP at fault time, and ``alloc_contig_range``-style 1 GiB
HugeTLB reservations.

:class:`~repro.core.kernel.ContiguitasKernel` subclasses this facade and
replaces the single allocator with the two confined regions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ..analysis.sanitizer import (
    FrameSanitizer,
    debug_vm_enabled,
    verify_kernel,
)
from ..errors import (
    ContiguityError,
    DoubleFreeError,
    MigrationError,
    OutOfMemoryError,
    SimInvariantError,
)
from ..faults import fault_site
from ..telemetry import set_sim_clock, tracepoint
from ..units import GIGAPAGE_FRAMES, MAX_ORDER, PAGEBLOCK_FRAMES, order_of
from . import vmstat as ev
from .buddy import BuddyAllocator, _fs_watermark
from .compaction import Compactor
from .contig import RangeEvacuator
from .handle import HandleRegistry, PageHandle
from .migrate import MigrationCostModel, can_migrate_sw, migrate_with_retry
from .page import AllocSource, MigrateType
from .pageblock import PageblockTable
from .physmem import PhysicalMemory
from .psi import PsiTracker
from .reclaim import ReclaimLRU, Watermarks
from .sections import nest, rng_state, scope, set_rng_state
from .vmstat import VmStat

_tp_oom = tracepoint("mm.kernel.oom")
_tp_slowpath = tracepoint("mm.kernel.slowpath")

# Fault site: an uncorrectable memory error strikes a random frame on
# the next tick; ``memory_failure`` hard-offlines it (docs/ROBUSTNESS.md).
_fs_uce = fault_site("mm.memory.uce")

#: Default migrate type per allocation source (callers may override).
DEFAULT_MIGRATETYPE: dict[AllocSource, MigrateType] = {
    AllocSource.USER: MigrateType.MOVABLE,
    AllocSource.NETWORKING: MigrateType.UNMOVABLE,
    AllocSource.SLAB: MigrateType.UNMOVABLE,
    AllocSource.FILESYSTEM: MigrateType.UNMOVABLE,
    AllocSource.PAGETABLE: MigrateType.UNMOVABLE,
    AllocSource.KERNEL_OTHER: MigrateType.UNMOVABLE,
    AllocSource.KERNEL_CODE: MigrateType.UNMOVABLE,
}


# Calibrations every kernel variant shares (docs/INTERNALS.md, "What a
# kernel call costs").

#: Simulated core count; remote TLB victims = cores - 1.
CORES = 8
VICTIM_CORES = CORES - 1
#: Software page-migration cost model.
MIGRATION_COST = MigrationCostModel()
#: Stall charged per direct-reclaim episode (µs).
RECLAIM_STALL_TICKS = 50.0
#: Stall charged per page compaction moves on the allocation path (µs).
COMPACT_STALL_PER_PAGE_TICKS = 3.0
#: Direct-compaction budget per allocation attempt, in migrated
#: pages.  Linux bounds direct compaction the same way: a THP fault
#: tries briefly and falls back rather than compacting the world.
COMPACT_BUDGET_PAGES = 768
#: Budget for the THP fault path specifically — much lighter, as in
#: Linux, where a huge-page fault must not stall the application.
THP_COMPACT_BUDGET_PAGES = 160
#: Per-CPU page cache refill batch and high mark (Linux PCP).
PCP_BATCH = 32
PCP_HIGH = 96
#: PSI averaging half-life (µs).
PSI_HALFLIFE_TICKS = 1_000_000.0


@dataclass
class KernelConfig:
    """Tunables shared by all kernel variants.

    THP and compaction are always on, as in the stock Linux the paper
    measures against.

    Attributes:
        mem_bytes: physical memory size (multiple of 2 MiB).
    """

    mem_bytes: int = 256 * 1024 * 1024
    #: Route order-0 traffic through per-CPU page caches (Linux PCP).
    #: Off by default; the PCP ablation benchmark turns it on.
    pcp_enabled: bool = False
    #: Attach the runtime frame-state sanitizer (the CONFIG_DEBUG_VM
    #: analogue, :mod:`repro.analysis.sanitizer`).  ``None`` defers to
    #: the ``REPRO_DEBUG_VM`` environment variable; True/False override.
    debug_vm: bool | None = None


class LinuxKernel:
    """Baseline kernel: one buddy allocator, fallback enabled."""

    name = "linux"

    def __init__(self, config: KernelConfig | None = None) -> None:
        self.config = config or KernelConfig()
        self.now = 0
        # Tracepoint timestamps read this kernel's simulated clock
        # (weakly held; the most recently built kernel wins).
        set_sim_clock(self)
        self.stat = VmStat()
        self.mem = PhysicalMemory(self.config.mem_bytes)
        if (self.config.debug_vm
                if self.config.debug_vm is not None else debug_vm_enabled()):
            FrameSanitizer().attach(self.mem)
        self.pageblocks = PageblockTable(self.mem)
        self.handles = HandleRegistry(self.mem)
        self.reclaim_lru = ReclaimLRU(self.stat, self.handles)
        self.psi = PsiTracker(PSI_HALFLIFE_TICKS)
        self._build_allocators()
        self.compactor = Compactor(
            self.mem, self.stat, MIGRATION_COST, victim_cores=VICTIM_CORES)
        self.evacuator = RangeEvacuator(
            self.mem, self.stat, MIGRATION_COST, victim_cores=VICTIM_CORES)
        import random as _random

        self._scan_rng = _random.Random(0xC0417)
        self._pcp: dict[str, object] = {}
        if self.config.pcp_enabled:
            from .pcp import PerCpuPages

            for alloc in self.allocators():
                self._pcp[alloc.label] = PerCpuPages(
                    alloc, cpus=CORES, batch=PCP_BATCH, high=PCP_HIGH)
        # Deferred compaction (Linux's defer_compaction): after a failed
        # targeted compaction, skip the expensive path for the next
        # 2**shift high-order slow-path entries.
        self._compact_defer_shift = 0
        self._compact_skip_remaining = 0
        #: Frames hard-offlined by :meth:`memory_failure`.
        self._offlined = 0
        #: Poisoned frames still inside live allocations; offlined for
        #: good the moment their owner frees them (Linux's deferred
        #: hwpoison handling).  This set — not the flag bit, which
        #: ``mark_free`` clears with the rest — is the durable record.
        self._deferred_offline: set[int] = set()

    # -- construction hooks (overridden by Contiguitas) -----------------

    def _build_allocators(self) -> None:
        # LIFO free lists: stock Linux reuses just-freed blocks first,
        # which is what scatters allocations across the address space.
        self.buddy = BuddyAllocator(
            self.mem, self.pageblocks, self.stat, prefer="lifo",
            label="zone-normal")
        self.buddy.seed_free()
        self.watermarks = Watermarks.for_frames(self.buddy.nr_frames)

    def allocator_for(self, pfn: int) -> BuddyAllocator:
        """The buddy allocator managing *pfn*."""
        return self.buddy

    def allocator_for_request(
        self, migratetype: MigrateType, source: AllocSource, pinned: bool,
    ) -> tuple[BuddyAllocator, MigrateType, str | None]:
        """Where a new request is served from: the allocator, the migrate
        type it is filed under there, and the pop direction (None: the
        allocator's own).  The one routing hook of both allocation APIs."""
        return self.buddy, migratetype, None

    def allocators(self) -> list[BuddyAllocator]:
        return [self.buddy]

    # -- time ------------------------------------------------------------

    def advance(self, dt: int = 1000) -> None:
        """Advance simulated time by *dt* ticks (µs) and run periodic work:
        PSI sampling and kswapd-style background reclaim."""
        self.now += dt
        if _fs_uce.armed:
            self._inject_uce()
        self.psi.sample(dt)
        self._periodic_work()

    def _inject_uce(self) -> None:
        """One armed-UCE attempt: maybe strike a random frame this tick."""
        if _fs_uce.fire(now=self.now):
            self.memory_failure(_fs_uce.draw(self.mem.nframes))

    def _periodic_work(self) -> None:
        for alloc in self.allocators():
            wm = self._watermarks_for(alloc)
            if alloc.nr_free < wm.low:
                self.reclaim(wm.high - alloc.nr_free)

    def _watermarks_for(self, alloc: BuddyAllocator) -> Watermarks:
        return self.watermarks

    # -- allocation API ----------------------------------------------------

    def alloc_pages(
        self,
        order: int = 0,
        source: AllocSource = AllocSource.USER,
        migratetype: MigrateType | None = None,
        pinned: bool = False,
        reclaimable: bool = False,
        compact_budget: int | None = None,
    ) -> PageHandle:
        """Allocate ``2**order`` contiguous frames.

        Runs the slow path (direct reclaim, then compaction for high-order
        requests) on failure, charging PSI stalls as it goes.
        ``compact_budget`` overrides the direct-compaction page budget
        (the THP fault path passes a lighter one).

        Raises:
            OutOfMemoryError: when the slow path cannot satisfy the request.
        """
        allocator, mt, prefer = self.allocator_for_request(
            migratetype if migratetype is not None
            else DEFAULT_MIGRATETYPE[source], source, pinned)
        pfn = None
        # A biased pop direction supersedes PCP; plain order-0 traffic
        # may use the per-CPU caches.
        pcp = (self._pcp.get(allocator.label)
               if self._pcp and order == 0 and prefer is None else None)
        if pcp is not None:
            pfn = pcp.alloc(mt, source, self.now, pinned)
        if pfn is None:
            pfn = allocator.alloc(order, mt, source, self.now, pinned, prefer)
        if pfn is None:
            pfn = self._slow_path(allocator, order, mt, source, pinned,
                                  compact_budget)
        handle = self.handles.register(pfn, order, mt, source, self.now,
                                       pinned, reclaimable)
        if reclaimable:
            self.reclaim_lru.register(handle)
        return handle

    def alloc_pages_bulk(
        self,
        count: int,
        source: AllocSource = AllocSource.USER,
        migratetype: MigrateType | None = None,
        reclaimable: bool = False,
    ) -> Sequence[PageHandle]:
        """Fast-path-only bulk order-0 allocation (``alloc_pages_bulk``).

        Returns up to *count* handles — possibly none — as a read-only
        sequence that builds each handle when it is first read
        (:class:`~repro.mm.handle.HandleBatch`).  The fast path
        never enters reclaim/compaction, never fires watermark faults,
        and steps aside entirely when PCP is routing order-0 traffic;
        the PFN sequence it does return is exactly what the same number
        of scalar :meth:`alloc_pages` calls would have produced, so
        callers complete any shortfall through the scalar API with
        unchanged slow-path and OOM semantics.  A request routed with a
        pop direction (Contiguitas's placement bias) stays scalar too:
        the bulk pop cannot reproduce a biased direction.
        """
        allocator, mt, prefer = self.allocator_for_request(
            migratetype if migratetype is not None
            else DEFAULT_MIGRATETYPE[source], source, False)
        if (count <= 0 or prefer is not None
                or self._pcp.get(allocator.label) is not None):
            return []
        pfns = allocator.alloc_bulk(count, mt, source, self.now)
        if not pfns.size:
            return []
        batch = self.handles.register_batch(pfns, reclaimable)
        if reclaimable:
            self.reclaim_lru.register_batch(batch)
        return batch

    def _slow_path(
        self,
        allocator: BuddyAllocator,
        order: int,
        mt: MigrateType,
        source: AllocSource,
        pinned: bool,
        compact_budget: int | None = None,
    ) -> int:
        """Direct reclaim, then compaction, then OOM."""
        if _tp_slowpath.enabled:
            _tp_slowpath.emit(order=order, mt=int(mt), source=int(source),
                              label=allocator.label,
                              nr_free=allocator.nr_free)
        self._record_stall(allocator, RECLAIM_STALL_TICKS)
        self.drain_pcp()
        wm = self._watermarks_for(allocator)
        want = max(1 << order, wm.high - allocator.nr_free)
        self.reclaim(want)
        pfn = allocator.alloc(order, mt, source, self.now, pinned)
        if pfn is not None:
            return pfn

        if order > 0:
            if compact_budget is None:
                compact_budget = COMPACT_BUDGET_PAGES
            result = self.compactor.compact(
                allocator, self.handles, target_order=order,
                max_migrations=compact_budget)
            self._record_stall(
                allocator,
                result.pages_migrated
                * COMPACT_STALL_PER_PAGE_TICKS)
            pfn = allocator.alloc(order, mt, source, self.now, pinned)
            if pfn is not None:
                return pfn
            if self._compact_skip_remaining > 0:
                self._compact_skip_remaining -= 1
            elif self._reclaim_compact(allocator, order, compact_budget):
                self._compact_defer_shift = 0
                pfn = allocator.alloc(order, mt, source, self.now, pinned)
                if pfn is not None:
                    return pfn
            else:
                self._compact_defer_shift = min(
                    self._compact_defer_shift + 1, 6)
                self._compact_skip_remaining = 1 << self._compact_defer_shift

        pfn = self._oom_rescue(allocator, order, mt, source, pinned)
        if pfn is not None:
            return pfn
        self._record_stall(allocator, RECLAIM_STALL_TICKS)
        if _tp_oom.enabled:
            _tp_oom.emit(order=order, mt=int(mt), label=allocator.label,
                         nr_free=allocator.nr_free)
        raise OutOfMemoryError(
            f"{self.name}: order-{order} {mt.name} allocation failed "
            f"({allocator.label}: {allocator.nr_free} frames free)")

    def _oom_rescue(
        self,
        allocator: BuddyAllocator,
        order: int,
        mt: MigrateType,
        source: AllocSource,
        pinned: bool,
    ) -> int | None:
        """Last-ditch fallback before declaring OOM under injected
        watermark failures: drop *every* reclaimable page (the OOM
        killer's moral equivalent — sacrifice page cache wholesale
        rather than fail the allocation) and retry once.  Returns the
        rescued PFN or None when truly exhausted.

        Active only while the ``mm.buddy.watermark`` site is armed:
        injected failures strike regardless of actual free space, so a
        final escalate-and-retry usually saves the allocation.  Genuine
        OOM semantics (and the counters every clean-run experiment
        depends on) are untouched — disarmed, this is one attribute
        load and a branch, the same contract as the injection hooks."""
        if not _fs_watermark.armed:
            return None
        self.reclaim(allocator.nr_frames)
        pfn = allocator.alloc(order, mt, source, self.now, pinned)
        if pfn is not None:
            self.stat.inc(ev.OOM_RESCUE)
        return pfn

    def _record_stall(self, allocator: BuddyAllocator, ticks: float) -> None:
        self.psi.record_stall(ticks)

    #: Budget units charged per candidate block inspected during targeted
    #: reclaim-compaction; bounds how far a single allocation may search.
    #: Sized so a THP-fault budget affords only one or two candidates.
    SCAN_COST = 96

    def _reclaim_compact(self, allocator: BuddyAllocator, order: int,
                         budget: int | None) -> bool:
        """Targeted reclaim-for-compaction (Linux's high-order slow path).

        Scans randomly chosen aligned candidate ranges of ``2**order``
        frames; a candidate is viable when it contains no unmovable page
        and its non-reclaimable movable content fits the migration budget.
        Page-cache pages in the range are simply dropped, the rest are
        migrated out, and the emptied range merges into the free block
        the caller wanted.  The scan budget is what makes THP coverage
        probabilistic on fragmented machines: each inspected block costs
        ``SCAN_COST`` units, so a light (THP-fault) budget gives up after
        a handful of poisoned or busy candidates.
        """
        if budget is None:
            budget = COMPACT_BUDGET_PAGES
        size = 1 << order
        span = allocator.end_pfn - allocator.start_pfn
        ncands = span // size
        if ncands <= 0:
            return False
        while budget > 0:
            budget -= self.SCAN_COST
            start = allocator.start_pfn + self._scan_rng.randrange(
                ncands) * size
            end = start + size
            if self.mem.unmovable_mask(start, end).any():
                continue
            heads = (np.flatnonzero(self.mem.alloc_order[start:end] >= 0)
                     + start).tolist()
            movers = []
            mover_frames = 0
            droppable = []
            for head in heads:
                handle = self.handles.get(head)
                if handle.reclaimable:
                    droppable.append(handle)
                else:
                    movers.append(handle)
                    mover_frames += handle.nframes
            if mover_frames > budget:
                continue
            ok = True
            for handle in droppable:
                self.free_pages(handle)
            for handle in movers:
                dst = self.evacuator._take_free_outside(
                    allocator, handle.order, start, end)
                if dst is None:
                    ok = False
                    break
                src = handle.pfn
                try:
                    migrate_with_retry(self.mem, src, dst, stat=self.stat)
                except MigrationError:
                    allocator.free_block(dst, handle.order)
                    ok = False
                    break
                allocator.free_block(src, handle.order)
                self.handles.relocate(src, dst)
                budget -= handle.nframes
                self.stat.inc(ev.COMPACT_MIGRATED, handle.nframes)
            if ok:
                return True
        return False

    def free_pages(self, handle: PageHandle) -> None:
        """Release an allocation (any order, including gigapages)."""
        if handle.freed:
            san = self.mem.sanitizer
            raise DoubleFreeError(
                f"handle already freed: {handle!r}", pfn=handle.pfn,
                history=san.history(handle.pfn) if san is not None else ())
        if handle.reclaimable:  # nothing else was ever on the LRU
            self.reclaim_lru.forget(handle)
        self.handles.on_free(handle)
        if handle.order <= MAX_ORDER:
            allocator = self.allocator_for(handle.pfn)
            pcp = (self._pcp.get(allocator.label)
                   if self._pcp and handle.order == 0 else None)
            if pcp is not None:
                self.stat.inc(ev.PAGES_FREED)
                pcp.free(handle.pfn)
            else:
                allocator.free(handle.pfn)
        else:
            # Gigapage-sized: clear and reinsert pageblock by pageblock.
            self.mem.mark_free(handle.pfn)
            self.stat.inc(ev.PAGES_FREED, handle.nframes)
            for pfn in range(handle.pfn, handle.pfn + handle.nframes,
                             PAGEBLOCK_FRAMES):
                self.allocator_for(pfn).free_block(pfn, MAX_ORDER)
        if self._deferred_offline:
            self._reoffline_range(handle.pfn, handle.nframes)

    def reclaim(self, target_frames: int) -> int:
        """Free reclaimable pages, oldest first, until *target_frames*
        frames are recovered or none is left; returns frames freed."""
        return self.reclaim_lru.reclaim(self.free_pages, self._free_unnamed,
                                        target_frames)

    def _free_unnamed(self, pfns: list[int]) -> None:
        """:meth:`free_pages` of each page in *pfns*, in order: a run of
        one batch's order-0, unpinned pages that reclaim has already
        dropped from the registry.  A page nobody named never moved, but
        a named one may have (compaction; a pin migration, then unpin),
        so the run is cut where :meth:`allocator_for` changes.  Order-0
        frees of a batch's pages bypass the per-CPU cache
        (:meth:`alloc_pages_bulk` serves no batch where one routes
        them).  Routing and the deferred-offline check are resolved once
        per piece."""
        allocator = self.allocator_for(pfns[0])
        if allocator.start_pfn <= min(pfns) and max(pfns) < allocator.end_pfn:
            pieces = ((allocator, pfns),)
        else:
            pieces = ((a, list(piece))
                      for a, piece in groupby(pfns, self.allocator_for))
        deferred = self._deferred_offline
        for allocator, piece in pieces:
            if not deferred or deferred.isdisjoint(piece):
                allocator.free_run(piece)
                continue
            for pfn in piece:
                allocator.free(pfn)
                if pfn in deferred:
                    self._reoffline_range(pfn, 1)

    def _reoffline_range(self, pfn: int, nframes: int) -> None:
        """Carve out any deferred-offline frames the just-freed range
        returned to the free lists (Linux's free-time hwpoison check)."""
        end = pfn + nframes
        hits = sorted(p for p in self._deferred_offline if pfn <= p < end)
        if not hits:
            return
        self.drain_pcp()
        for victim in hits:
            self._offline_free_frame(victim)

    # -- pinning -----------------------------------------------------------

    def pin_pages(self, handle: PageHandle) -> None:
        """Pin an allocation for DMA/RDMA: it becomes unmovable in place.

        On stock Linux the page stays wherever it is — this is the dynamic
        pollution of movable memory that Contiguitas prevents (§3.2).
        """
        handle.pinned = True
        self.mem.pin(handle.pfn)

    def unpin_pages(self, handle: PageHandle) -> None:
        handle.pinned = False
        self.mem.unpin(handle.pfn)

    # -- memory failure (hwpoison) ---------------------------------------

    def memory_failure(self, pfn: int) -> bool:
        """Handle an uncorrectable memory error on frame *pfn*.

        The simulator's ``memory_failure`` analogue, with Linux's three
        outcomes:

        * the frame is **free** — carve it out of its buddy block and
          hard-offline it immediately;
        * the frame is in a **movable** allocation — migrate the
          allocation away (its owner never notices), then offline the
          now-free frame;
        * the frame is **unmovable/pinned** (or the rescue migration
          failed) — the error is fatal in place: the frame is poisoned
          where it sits and the offline is deferred until the owner
          frees it.

        Returns True when the frame was offlined now, False when the
        offline was deferred.  Either way the frame never serves another
        allocation: offlined frames become permanent order-0 unmovable
        placeholders that every scan, compactor, and region resize
        routes around, and the contiguity CDF accounts for the hole.
        """
        self.stat.inc(ev.MEMORY_FAILURE)
        if self.mem.is_poisoned(pfn) or pfn in self._deferred_offline:
            return True  # already handled; UCE on a dead cell is a no-op
        self.drain_pcp()
        if not self.mem.is_allocated(pfn):
            self._offline_free_frame(pfn)
            return True
        info = self.mem.allocation_info(pfn)
        if can_migrate_sw(info):
            head = info.pfn
            allocator = self.allocator_for(head)
            dst = self.evacuator._take_free_outside(
                allocator, info.order, head, head + info.nframes)
            if dst is not None:
                try:
                    migrate_with_retry(self.mem, head, dst, stat=self.stat)
                except MigrationError:
                    allocator.free_block(dst, info.order)
                else:
                    allocator.free_block(head, info.order)
                    self.handles.relocate(head, dst)
                    self.stat.inc(ev.MIGRATE_SUCCESS)
                    self._offline_free_frame(pfn)
                    return True
        self.mem.poison(pfn)
        self._deferred_offline.add(pfn)
        self.stat.inc(ev.MEMORY_FAILURE_FATAL)
        return False

    def _offline_free_frame(self, pfn: int) -> None:
        """Offline a frame that is currently free: pull its buddy block
        off the lists, give back every sibling frame, and leave *pfn*
        as a permanent poisoned placeholder."""
        allocator = self.allocator_for(pfn)
        head, order = self._free_head_of(allocator, pfn)
        allocator.take_free_block(head)
        for frame in range(head, head + (1 << order)):
            if frame != pfn:
                allocator.free_block(frame, 0)
        self.mem.mark_allocated(pfn, 0, MigrateType.UNMOVABLE,
                                AllocSource.KERNEL_OTHER, self.now)
        self.mem.poison(pfn)
        self._deferred_offline.discard(pfn)
        self._offlined += 1
        self.stat.inc(ev.MEMORY_FAILURE_OFFLINED)
        self._note_offline(pfn)

    def _free_head_of(
        self, allocator: BuddyAllocator, pfn: int,
    ) -> tuple[int, int]:
        """The ``(head, order)`` of the free buddy block containing *pfn*.

        Buddy blocks are naturally aligned, so the covering block's head
        is *pfn* masked to the block's alignment; walk the orders up
        until the mask lands on a recorded free head."""
        free_order = self.mem.free_order_mv
        for order in range(MAX_ORDER + 1):
            head = pfn & ~((1 << order) - 1)
            if free_order[head] == order:
                return head, order
        raise SimInvariantError(
            f"pfn {pfn} is free but on no free list of {allocator.label}")

    def _note_offline(self, pfn: int) -> None:
        """Re-derive capacity-relative state after a frame went offline
        (Contiguitas additionally re-accounts the owning region)."""
        self._refresh_watermarks()

    def _refresh_watermarks(self) -> None:
        self.watermarks = Watermarks.for_frames(
            self.buddy.nr_frames - self._offlined)

    def offlined_frames(self) -> int:
        """Frames permanently offlined by :meth:`memory_failure`."""
        return self._offlined

    # -- huge pages ----------------------------------------------------------

    def alloc_thp(self, source: AllocSource = AllocSource.USER,
                  reclaimable: bool = False) -> PageHandle | None:
        """Attempt a 2 MiB transparent huge page; None on fallback.

        Mirrors the THP fault path: try the huge allocation, compact once
        if needed, and let the caller fall back to base pages.
        """
        try:
            handle = self.alloc_pages(
                MAX_ORDER, source, MigrateType.MOVABLE,
                reclaimable=reclaimable,
                compact_budget=THP_COMPACT_BUDGET_PAGES)
        except OutOfMemoryError:
            self.stat.inc(ev.THP_FALLBACK)
            return None
        self.stat.inc(ev.THP_ALLOC)
        return handle

    def alloc_gigapage(self) -> PageHandle:
        """Reserve a 1 GiB HugeTLB page via range evacuation.

        Scans 1 GiB-aligned candidate ranges, skips any containing
        unmovable pages, and evacuates the best candidate.

        Raises:
            ContiguityError: no candidate range could be emptied.
        """
        handle = self._alloc_contig(GIGAPAGE_FRAMES)
        if handle is None:
            self.stat.inc(ev.HUGETLB_1G_FAIL)
            raise ContiguityError(
                f"{self.name}: no 1GiB range could be assembled")
        self.stat.inc(ev.HUGETLB_1G_ALLOC)
        return handle

    def _contig_candidates(self, nframes: int) -> list[tuple[int, int]]:
        """Aligned candidate ranges for a contiguous allocation, best
        candidates (fewest unmovable frames) first."""
        unmovable = self.mem.unmovable_mask()
        out = []
        for start in range(0, self.mem.nframes - nframes + 1, nframes):
            blockers = int(np.count_nonzero(unmovable[start:start + nframes]))
            out.append((blockers, start))
        out.sort()
        return [(start, start + nframes) for blockers, start in out
                if blockers == 0]

    def _alloc_contig(self, nframes: int) -> PageHandle | None:
        self.drain_pcp()
        order = order_of(nframes)   # ValueError unless a power of two
        for start, end in self._contig_candidates(nframes):
            allocator = self.allocator_for(start)
            if not (allocator.contains(start) and allocator.contains(end - 1)):
                continue
            result = self.evacuator.evacuate(
                allocator, self.handles, start, end)
            if not result.success:
                continue
            self.evacuator.capture_range(allocator, start, end)
            self.mem.mark_allocated(
                start, order, MigrateType.MOVABLE, AllocSource.USER, self.now)
            return self.handles.register(
                start, order, MigrateType.MOVABLE, AllocSource.USER, self.now)
        return None

    # -- snapshot (the checkpoint schema) ----------------------------------------

    def snapshot(self) -> dict:
        """This kernel's mutable state as sections: the frame columns,
        the pageblock types, each allocator's free-list table (and PCP
        lists), the handle registry and the reclaim LRU — handles as
        registry slots — and the scalars, counters and scan RNG.  What
        the config determines (the config objects, cost models,
        watermarks, the memoryview mirrors) is left to a fresh boot."""
        sections = {**nest("mem", self.mem.snapshot()),
                    **nest("pageblocks", self.pageblocks.snapshot()),
                    **nest("handles", self.handles.snapshot()),
                    **nest("lru", self.reclaim_lru.snapshot()),
                    "state": self._state()}
        for alloc in self.allocators():
            sections.update(nest(alloc.label, alloc.snapshot()))
            if alloc.label in self._pcp:
                sections.update(nest(alloc.label,
                                     self._pcp[alloc.label].snapshot()))
        return sections

    def _state(self) -> dict:
        return {"now": self.now, "stat": self.stat.snapshot(),
                "psi": self.psi.snapshot(),
                "scan_rng": rng_state(self._scan_rng),
                "compact_defer": [self._compact_defer_shift,
                                  self._compact_skip_remaining],
                "offlined": self._offlined,
                "deferred_offline": sorted(self._deferred_offline)}

    def restore(self, sections) -> None:
        """Load a :meth:`snapshot` into this kernel, freshly booted from
        the same config."""
        self.mem.restore(scope("mem", sections))
        self.pageblocks.restore(scope("pageblocks", sections))
        for alloc in self.allocators():
            state = scope(alloc.label, sections)
            alloc.restore(state)
            if alloc.label in self._pcp:
                self._pcp[alloc.label].restore(state)
        self.handles.restore(scope("handles", sections))
        self.reclaim_lru.restore(scope("lru", sections))
        self._restore_state(sections["state"])

    def _restore_state(self, state: dict) -> None:
        self.now = state["now"]
        # A fresh boot has counted nothing: merging is loading.
        self.stat.merge(state["stat"])
        self.psi.restore(state["psi"])
        set_rng_state(self._scan_rng, state["scan_rng"])
        self._compact_defer_shift, self._compact_skip_remaining = (
            state["compact_defer"])
        self._offlined = state["offlined"]
        self._deferred_offline = set(state["deferred_offline"])
        self._refresh_watermarks()

    # -- introspection ---------------------------------------------------------

    def drain_pcp(self) -> int:
        """Flush per-CPU page caches back to the buddy lists (done before
        compaction and contiguous allocation)."""
        return sum(pcp.drain() for pcp in self._pcp.values())

    def free_frames(self) -> int:
        return (sum(a.nr_free for a in self.allocators())
                + sum(p.held_pages() for p in self._pcp.values()))

    def check_consistency(self) -> None:
        """Cross-check buddy bookkeeping against the frame arrays.

        Raises the typed sanitizer errors (survives ``python -O``)."""
        verify_kernel(self)
