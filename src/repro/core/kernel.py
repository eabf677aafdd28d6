"""The Contiguitas kernel: confined regions + dynamic resizing (+HW).

:class:`ContiguitasKernel` extends the baseline :class:`~repro.mm.kernel.
LinuxKernel` with the paper's OS design (§3.2):

* two fallback-free buddy allocators over the movable/unmovable regions —
  confinement by construction, no pageblock stealing can ever mix types;
* movable→unmovable migration on pinning, so zero-copy/RDMA pins never
  freeze pages inside the movable region;
* per-region PSI and the Algorithm-1 resizer, invoked off the allocation
  critical path from the periodic-reclaim hook;
* placement bias away from the region border;
* optionally (``hw_enabled``), Contiguitas-HW-backed migration of
  unmovable pages, which unblocks region shrinking and enables
  defragmentation of the unmovable region itself (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MigrationError, OutOfMemoryError
from ..mm import vmstat as ev
from ..mm.buddy import BuddyAllocator
from ..mm.handle import PageHandle
from ..mm.kernel import KernelConfig, LinuxKernel, _fs_uce
from ..mm.migrate import migrate_with_retry
from ..mm.page import AllocSource, MigrateType
from ..mm.reclaim import Watermarks
from ..units import PAGEBLOCK_FRAMES
from .placement import PlacementPolicy
from .pressure import Region, RegionPressure
from .regions import RegionLayout
from .resizing import RegionResizer, ResizeConfig


@dataclass
class ContiguitasConfig(KernelConfig):
    """Kernel tunables plus the Contiguitas-specific knobs.

    Attributes:
        initial_unmovable_fraction: boot-time unmovable-region share of
            memory (the paper uses 4 GiB on 64 GiB servers = 1/16).
        resize: Algorithm-1 parameters.
        placement: border-bias policy (ablation: ``bias_enabled=False``).
        hw_enabled: model Contiguitas-HW being present, allowing unmovable
            pages to be migrated.
        resize_check_interval_ticks: background resize cadence; resizing
            is also woken directly by low-watermark reclaim events.
    """

    initial_unmovable_fraction: float = 1 / 16
    resize: ResizeConfig = field(default_factory=ResizeConfig)
    placement: PlacementPolicy = field(default_factory=PlacementPolicy)
    hw_enabled: bool = False
    resize_check_interval_ticks: int = 100_000


# Enum members as module constants: a class-attribute read on an Enum
# costs ten times a global load, and routing runs once per allocation.
_USER = AllocSource.USER
_MOVABLE, _UNMOVABLE = MigrateType.MOVABLE, MigrateType.UNMOVABLE


class ContiguitasKernel(LinuxKernel):
    """Linux with Contiguitas's confined-region memory management."""

    name = "contiguitas"

    def __init__(self, config: ContiguitasConfig | None = None) -> None:
        self._cfg = config or ContiguitasConfig()
        self.region_pressure = RegionPressure(self._cfg.psi_halflife_ticks)
        self.resizer = RegionResizer(self._cfg.resize)
        self._last_resize_check = 0
        super().__init__(self._cfg)

    # -- construction -----------------------------------------------------

    def _build_allocators(self) -> None:
        cfg: ContiguitasConfig = self.config
        self.layout = RegionLayout.with_initial_unmovable(
            self.mem.npageblocks, cfg.initial_unmovable_fraction)
        boundary = self.layout.boundary_block
        self.pageblocks.types[:boundary] = int(MigrateType.MOVABLE)
        self.pageblocks.types[boundary:] = int(MigrateType.UNMOVABLE)
        # The movable region keeps Linux's LIFO reuse (realistic churn);
        # scattering inside it is harmless because everything is movable.
        self.movable = BuddyAllocator(
            self.mem, self.pageblocks, self.stat,
            start_block=0, end_block=boundary,
            fallback_enabled=False, prefer="lifo", label="movable")
        # The unmovable region's default is plain LIFO reuse; the border
        # bias comes from the placement policy per allocation, so the
        # ablation (bias off) degenerates to realistic scattering.
        self.unmovable = BuddyAllocator(
            self.mem, self.pageblocks, self.stat,
            start_block=boundary, end_block=self.mem.npageblocks,
            fallback_enabled=False, prefer="lifo", label="unmovable")
        self.movable.seed_free()
        self.unmovable.seed_free()
        self._refresh_watermarks()

    def _refresh_watermarks(self) -> None:
        # Effective (not geometric) frames: hard-offlined holes no
        # longer back any allocation, so watermarks track what the
        # region can actually serve.
        self._watermarks = {
            "movable": Watermarks.for_frames(
                self.layout.effective_movable_frames),
            "unmovable": Watermarks.for_frames(
                self.layout.effective_unmovable_frames),
        }

    def _note_offline(self, pfn: int) -> None:
        self.layout.note_offline(pfn)
        self._refresh_watermarks()

    # -- routing -----------------------------------------------------------

    def allocator_for(self, pfn: int) -> BuddyAllocator:
        return (self.unmovable if self.layout.in_unmovable(pfn)
                else self.movable)

    def allocator_for_request(
        self, migratetype: MigrateType, source: AllocSource, pinned: bool,
    ) -> tuple[BuddyAllocator, MigrateType, str | None]:
        """Confinement and placement bias: anything unmovable goes to the
        unmovable region, popped in the policy's direction.  The migrate
        type is coerced to the region's: inside a region, pages live on a
        single per-region free-list family (paper §3.2, "distinct free
        lists for each region")."""
        if pinned or source is not _USER or migratetype != _MOVABLE:
            return (self.unmovable, _UNMOVABLE,
                    self.config.placement.direction(source))
        return self.movable, _MOVABLE, None

    def allocators(self) -> list[BuddyAllocator]:
        return [self.movable, self.unmovable]

    def _watermarks_for(self, alloc: BuddyAllocator) -> Watermarks:
        return self._watermarks[alloc.label]

    def _region_of(self, alloc: BuddyAllocator) -> Region:
        return Region.UNMOVABLE if alloc is self.unmovable else Region.MOVABLE

    # -- allocation --------------------------------------------------------

    def _slow_path(
        self,
        allocator: BuddyAllocator,
        order: int,
        mt: MigrateType,
        source: AllocSource,
        pinned: bool,
        compact_budget: int | None = None,
    ) -> int:
        """Region-aware slow path.

        The unmovable region expands synchronously when it runs dry (the
        async resizer normally keeps this from happening); the movable
        region reclaims, compacts, and pulls free boundary blocks back
        from the unmovable region.
        """
        self._record_stall(allocator, self.config.reclaim_stall_ticks)
        self.drain_pcp()
        if allocator is self.unmovable:
            while allocator.largest_free_order() < order:
                if not self._expand_one():
                    break
            pfn = allocator.alloc(order, mt, source, self.now, pinned)
            if pfn is not None:
                return pfn
            # Last resort: reclaimable kernel memory may be on the LRU.
            self.reclaim(1 << order)
            pfn = allocator.alloc(order, mt, source, self.now, pinned)
            if pfn is not None:
                return pfn
            pfn = self._oom_rescue(allocator, order, mt, source, pinned)
            if pfn is not None:
                return pfn
            raise OutOfMemoryError(
                f"{self.name}: unmovable region exhausted "
                f"(order-{order}, {allocator.nr_free} frames free)")

        # Movable region: reclaim, compact, then shrink the unmovable
        # region to recover memory.
        wm = self._watermarks_for(allocator)
        want = max(1 << order, wm.high - allocator.nr_free)
        self.reclaim(want)
        pfn = allocator.alloc(order, mt, source, self.now, pinned)
        if pfn is not None:
            return pfn
        if order > 0 and self.config.compaction_enabled:
            if compact_budget is None:
                compact_budget = self.config.compact_budget_pages
            result = self.compactor.compact(
                allocator, self.handles, target_order=order,
                max_migrations=compact_budget)
            self._record_stall(
                allocator,
                result.pages_migrated
                * self.config.compact_stall_per_page_ticks)
            pfn = allocator.alloc(order, mt, source, self.now, pinned)
            if pfn is not None:
                return pfn
        if order > 0 and self.config.compaction_enabled:
            if self._reclaim_compact(allocator, order, compact_budget):
                pfn = allocator.alloc(order, mt, source, self.now, pinned)
                if pfn is not None:
                    return pfn
        while allocator.nr_free < (1 << order):
            if not self._shrink_one():
                break
        pfn = allocator.alloc(order, mt, source, self.now, pinned)
        if pfn is not None:
            return pfn
        pfn = self._oom_rescue(allocator, order, mt, source, pinned)
        if pfn is not None:
            return pfn
        raise OutOfMemoryError(
            f"{self.name}: movable region exhausted "
            f"(order-{order}, {allocator.nr_free} frames free)")

    def _record_stall(self, allocator: BuddyAllocator, ticks: float) -> None:
        super()._record_stall(allocator, ticks)
        self.region_pressure.record_stall(self._region_of(allocator), ticks)

    # -- pinning: migrate-then-pin (§3.2) -----------------------------------

    def pin_pages(self, handle: PageHandle) -> None:
        """Pin an allocation, first migrating it into the unmovable region
        so the movable region is never polluted by pinned pages."""
        if not self.layout.in_unmovable(handle.pfn):
            prefer = self.config.placement.direction(
                handle.source, pin_migration=True)
            dst = self.unmovable.take_free(
                handle.order, MigrateType.UNMOVABLE, prefer=prefer)
            attempts = 0
            while dst is None and attempts < 4:
                attempts += 1
                if not self._expand_one():
                    # Expansion needs movable headroom to evacuate the
                    # boundary block into: reclaim page cache and retry.
                    wm = self._watermarks_for(self.movable)
                    if not self.reclaim(wm.high):
                        break
                    if not self._expand_one():
                        break
                dst = self.unmovable.take_free(
                    handle.order, MigrateType.UNMOVABLE, prefer=prefer)
            if dst is not None:
                src = handle.pfn
                try:
                    migrate_with_retry(self.mem, src, dst, stat=self.stat)
                except MigrationError:
                    # Transient pin/busy persisted across the retry
                    # budget: give the captured block back and fall
                    # through to pin-in-place.
                    self.unmovable.free_block(dst, handle.order)
                else:
                    self.movable.free_block(src, handle.order)
                    self.handles.relocate(src, dst)
                    self.stat.inc(ev.PIN_MIGRATIONS)
            # else: pin in place — the pollution Linux always suffers;
            # counted so experiments can detect it.
        handle.pinned = True
        self.mem.pin(handle.pfn)

    # -- boundary moves ------------------------------------------------------

    def _expand_one(self) -> bool:
        """Grow the unmovable region by one pageblock (evacuating the
        movable block adjacent to the boundary)."""
        if not self.layout.can_expand_unmovable():
            self.stat.inc(ev.REGION_EXPAND_BLOCKED)
            return False
        block = self.layout.boundary_block - 1
        start = block * PAGEBLOCK_FRAMES
        result = self.evacuator.evacuate(
            self.movable, self.handles, start, start + PAGEBLOCK_FRAMES)
        if not result.success:
            self.stat.inc(ev.REGION_EXPAND_BLOCKED)
            return False
        self.movable.release_block(block)
        self.layout.expand_unmovable()
        self.unmovable.adopt_block(block, MigrateType.UNMOVABLE)
        self._refresh_watermarks()
        self.stat.inc(ev.REGION_EXPAND)
        return True

    def _shrink_one(self) -> bool:
        """Return the boundary pageblock to the movable region.

        Succeeds when the block is free (the placement bias works to make
        this likely).  With Contiguitas-HW the block's remaining pages —
        including unmovable ones — are migrated deeper into the region
        first; without it, an occupied block stops the shrink.
        """
        if not self.layout.can_shrink_unmovable():
            return False
        block = self.layout.boundary_block
        start = block * PAGEBLOCK_FRAMES
        end = start + PAGEBLOCK_FRAMES
        occupied = bool(self.mem.allocated_mask(start, end).any())
        if occupied:
            if not self.config.hw_enabled:
                return False
            result = self.evacuator.evacuate(
                self.unmovable, self.handles, start, end,
                hardware_assisted=True)
            if not result.success:
                return False
        self.unmovable.release_block(block)
        self.layout.shrink_unmovable()
        self.movable.adopt_block(block, MigrateType.MOVABLE)
        self._refresh_watermarks()
        self.stat.inc(ev.REGION_SHRINK)
        return True

    # -- periodic work ----------------------------------------------------------

    def advance(self, dt: int = 1000) -> None:
        self.now += dt
        if _fs_uce.armed:
            self._inject_uce()
        self.psi.sample(dt)
        self.region_pressure.sample(dt)
        self._periodic_work()

    def _periodic_work(self) -> None:
        resize_due = (self.now - self._last_resize_check
                      >= self.config.resize_check_interval_ticks)
        for alloc in self.allocators():
            wm = self._watermarks_for(alloc)
            if alloc.nr_free < wm.low:
                # kswapd-style reclaim also wakes the resize thread (§3.2).
                resize_due = True
                if alloc is self.movable:
                    self.reclaim(wm.high - alloc.nr_free)
        if resize_due:
            self._last_resize_check = self.now
            self.resizer.run(
                self.region_pressure.unmovable,
                self.region_pressure.movable,
                self.unmovable.nr_frames,
                PAGEBLOCK_FRAMES,
                self._expand_one,
                self._shrink_one,
            )

    # -- contiguity: gigapages come from the movable region --------------------

    def _contig_candidates(self, nframes: int) -> list[tuple[int, int]]:
        candidates = super()._contig_candidates(nframes)
        boundary_pfn = self.layout.boundary_pfn
        return [(s, e) for s, e in candidates if e <= boundary_pfn]

    # -- invariants ----------------------------------------------------------

    def confinement_violations(self) -> int:
        """Frames of unmovable memory sitting inside the movable region
        (should be zero; pin-in-place fallbacks would show up here)."""
        import numpy as np

        boundary = self.layout.boundary_pfn
        return int(np.count_nonzero(self.mem.unmovable_mask(0, boundary)))
