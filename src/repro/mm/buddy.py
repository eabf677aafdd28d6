"""Buddy allocator with per-migratetype free lists and pageblock stealing.

This is a frame-accurate reimplementation of the parts of Linux's page
allocator that matter for fragmentation dynamics:

* per-order, per-migratetype free lists,
* block split on allocation and buddy merge on free,
* fallback allocation with whole-pageblock stealing
  (:mod:`repro.mm.fallback`), which is how unmovable allocations invade
  movable pageblocks,
* address-ordered block selection, with a configurable preference for low
  or high addresses (used by Contiguitas's placement bias, paper §3.2).

One :class:`BuddyAllocator` manages a contiguous, pageblock-aligned range of
frames.  The stock Linux kernel uses a single allocator over all memory;
Contiguitas instantiates two (movable / unmovable region) and moves
pageblocks between them when the region boundary shifts.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, FreelistDivergenceError
from ..faults import fault_site
from ..telemetry import tracepoint
from ..units import MAX_ORDER, PAGEBLOCK_FRAMES
from . import vmstat as ev
from .fallback import fallback_types, should_steal_pageblock
from .freelist import FreeList
from .page import AllocSource, MigrateType
from .pageblock import PageblockTable
from .physmem import PhysicalMemory

# Tracepoints at the allocator's decision points (docs/OBSERVABILITY.md).
# Call sites guard on ``.enabled`` so the disabled path never builds
# event arguments.
_tp_alloc = tracepoint("mm.buddy.alloc")
_tp_free = tracepoint("mm.buddy.free")
_tp_fallback = tracepoint("mm.buddy.fallback")
_tp_steal = tracepoint("mm.buddy.steal")

# Fault site: the allocation fails as if the zone dipped below its
# watermarks, regardless of actual free space.  The kernel facade
# responds with its real slow path (reclaim escalation, compaction,
# then the OOM fallback) — see docs/ROBUSTNESS.md.
_fs_watermark = fault_site("mm.buddy.watermark")

_EMPTY_PFNS = np.empty(0, dtype=np.int64)


class BuddyAllocator:
    """Binary buddy allocator over ``[start_block, end_block)`` pageblocks.

    Args:
        mem: backing physical memory (shared with any sibling allocators).
        pageblocks: the pageblock table (shared).
        stat: event counter.
        start_block, end_block: pageblock index range this allocator owns.
        fallback_enabled: when False, allocation never crosses migrate-type
            lists (Contiguitas regions disable fallback — confinement).
        prefer: free-block selection policy.  ``"lifo"`` is stock Linux
            (freed blocks are reused first, scattering allocations across
            the address space); ``"low"``/``"high"`` are address-ordered
            and used by Contiguitas's placement bias (the unmovable region
            prefers the end farthest from the region border).
        label: name used in diagnostics.
    """

    def __init__(
        self,
        mem: PhysicalMemory,
        pageblocks: PageblockTable,
        stat,
        start_block: int = 0,
        end_block: int | None = None,
        fallback_enabled: bool = True,
        prefer: str = "low",
        label: str = "buddy",
    ) -> None:
        if prefer not in ("low", "high", "lifo"):
            raise ConfigurationError(
                f"prefer must be low/high/lifo, got {prefer!r}")
        self.mem = mem
        self.pageblocks = pageblocks
        self.stat = stat
        self.start_block = start_block
        self.end_block = mem.npageblocks if end_block is None else end_block
        self.fallback_enabled = fallback_enabled
        self.prefer = prefer
        self.label = label

        # One intrusive list per (order, migratetype), all threaded
        # through the shared per-frame link arrays on ``mem.freelists``
        # (sibling allocators over the same memory share the store; list
        # ids keep their memberships disjoint).
        store = mem.freelists
        self.free_lists: list[dict[MigrateType, FreeList]] = [
            {mt: store.new_list() for mt in MigrateType}
            for _ in range(MAX_ORDER + 1)
        ]
        #: Per-migratetype occupancy bitmaps: bit *o* of ``_occ[int(mt)]``
        #: is set when ``free_lists[o][mt]`` *may* be non-empty.  The
        #: bitmap is conservative — bits are set eagerly on insert and
        #: cleared lazily when a lookup observes an empty list — so
        #: subclasses and external capture paths that pop from the
        #: :class:`FreeList` objects directly can never make it unsound,
        #: only momentarily loose.  ``_rmqueue`` / ``_alloc_fallback`` /
        #: ``largest_free_order`` use it to skip empty (order, type)
        #: pairs without touching the dicts at all.
        self._occ: list[int] = [0] * len(MigrateType)
        #: Free frames currently held on this allocator's lists.
        self.nr_free = 0

    # ------------------------------------------------------------------
    # Range management
    # ------------------------------------------------------------------

    @property
    def start_pfn(self) -> int:
        return self.start_block * PAGEBLOCK_FRAMES

    @property
    def end_pfn(self) -> int:
        return self.end_block * PAGEBLOCK_FRAMES

    @property
    def nr_blocks(self) -> int:
        return self.end_block - self.start_block

    @property
    def nr_frames(self) -> int:
        return self.nr_blocks * PAGEBLOCK_FRAMES

    def contains(self, pfn: int) -> bool:
        """Whether *pfn* lies in this allocator's managed range."""
        return self.start_pfn <= pfn < self.end_pfn

    def seed_free(self) -> None:
        """Populate the free lists with the entire range as free pageblocks.

        Called once at boot; every block enters at its pageblock's current
        migrate type.
        """
        for block in range(self.start_block, self.end_block):
            pfn = block * PAGEBLOCK_FRAMES
            self._insert_free(pfn, MAX_ORDER, self.pageblocks.get(pfn))

    def adopt_block(self, block: int, mt: MigrateType) -> None:
        """Extend the managed range by one *fully free* pageblock.

        Used when a Contiguitas region grows: the block must be adjacent to
        the current range (boundary moves contiguously) and contain no live
        allocations.
        """
        if block == self.start_block - 1:
            self.start_block = block
        elif block == self.end_block:
            self.end_block = block + 1
        else:
            raise ConfigurationError(
                f"{self.label}: block {block} not adjacent to "
                f"[{self.start_block},{self.end_block})"
            )
        pfn = block * PAGEBLOCK_FRAMES
        if self.mem.allocated_mask(pfn, pfn + PAGEBLOCK_FRAMES).any():
            raise ConfigurationError(f"adopting non-free block {block}")
        self.pageblocks.set_block(block, mt)
        self._insert_free(pfn, MAX_ORDER, mt)

    def release_block(self, block: int) -> None:
        """Shrink the managed range by one fully free edge pageblock.

        The inverse of :meth:`adopt_block`; the caller re-adopts the block
        into a sibling allocator.
        """
        if block not in (self.start_block, self.end_block - 1):
            raise ConfigurationError(
                f"{self.label}: block {block} is not at an edge"
            )
        pfn = block * PAGEBLOCK_FRAMES
        if self.mem.free_order[pfn] != MAX_ORDER:
            raise ConfigurationError(f"releasing non-free block {block}")
        self._remove_free(pfn)
        if block == self.start_block:
            self.start_block += 1
        else:
            self.end_block -= 1

    # ------------------------------------------------------------------
    # Allocation / free
    # ------------------------------------------------------------------

    def alloc(
        self,
        order: int,
        migratetype: MigrateType,
        source: AllocSource = AllocSource.USER,
        now: int = 0,
        pinned: bool = False,
        prefer: str | None = None,
    ) -> int | None:
        """Allocate ``2**order`` contiguous frames; returns head PFN or None.

        Tries the requested migrate type's lists first, then (when fallback
        is enabled) steals from other types per the Linux fallback policy.
        Returns ``None`` when nothing fits — the caller (kernel facade)
        decides whether to reclaim, compact, or fail.
        """
        if _fs_watermark.armed and _fs_watermark.fire(order=order,
                                                      label=self.label):
            self.stat.inc(ev.ALLOC_FAIL)
            return None
        direction = prefer or self.prefer
        pfn = self._rmqueue(order, migratetype, direction)
        if pfn is None and self.fallback_enabled:
            pfn = self._alloc_fallback(order, migratetype, direction)
        if pfn is None:
            self.stat.inc(ev.ALLOC_FAIL)
            if _tp_alloc.enabled:
                _tp_alloc.emit(ts=now, pfn=-1, order=order,
                               mt=int(migratetype), label=self.label)
            return None
        self.mem.mark_allocated(pfn, order, migratetype, source, now, pinned)
        self.stat.inc(ev.ALLOC_SUCCESS)
        if _tp_alloc.enabled:
            _tp_alloc.emit(ts=now, pfn=pfn, order=order,
                           mt=int(migratetype), source=int(source),
                           label=self.label)
        return pfn

    def take_free(
        self,
        order: int,
        migratetype: MigrateType,
        prefer: str | None = None,
    ) -> int | None:
        """Capture a free block of exactly *order* without marking it
        allocated — migration code uses this to reserve a destination and
        then transfers the source allocation's metadata onto it."""
        return self._rmqueue(order, migratetype, prefer or self.prefer)

    def free(self, pfn: int) -> int:
        """Free the allocation headed at *pfn*; returns its order.

        The freed block joins the free list matching its pageblock's
        *current* migrate type and is merged with free buddies up to
        pageblock size.
        """
        order = self.mem.mark_free(pfn)
        self.stat.inc(ev.PAGES_FREED, 1 << order)
        if _tp_free.enabled:
            _tp_free.emit(pfn=pfn, order=order, label=self.label)
        self.free_blocks((pfn,), order)
        return order

    def free_run(self, pfns: list[int]) -> None:
        """:meth:`free` of each order-0 allocation headed in *pfns*, in
        order — same marks, counters, tracepoints and free lists — with
        one counter bump and one cascade call for the run."""
        mark_free = self.mem.mark_free
        for pfn in pfns:
            mark_free(pfn)
        self.stat.inc(ev.PAGES_FREED, len(pfns))
        if _tp_free.enabled:
            for pfn in pfns:
                _tp_free.emit(pfn=pfn, order=0, label=self.label)
        self.free_blocks(pfns, 0)

    def free_block(self, pfn: int, order: int) -> None:
        """Insert an already-cleared frame range into the free lists,
        merging with buddies (low-level path shared with migration)."""
        self.free_blocks((pfn,), order)

    def free_blocks(self, pfns, order: int) -> None:
        """:meth:`free_block` of each head in *pfns*, in order."""
        # Hot: every guard is resolved once per call, not once per block
        # or merge level (the loop body is _remove_free inlined, the
        # tail is _insert_free inlined).
        mem = self.mem
        free_order, free_mt = mem.free_order_mv, mem.free_mt_mv
        start_pfn = self.start_block * PAGEBLOCK_FRAMES
        end_pfn = self.end_block * PAGEBLOCK_FRAMES
        lists, occ = self.free_lists, self._occ
        mt_of = self.pageblocks.get_int
        first = order
        for pfn in pfns:
            order = first
            while order < MAX_ORDER:
                buddy = pfn ^ (1 << order)
                if (buddy < start_pfn or buddy >= end_pfn
                        or free_order[buddy] != order):
                    break
                imt = free_mt[buddy]
                flist = lists[order][imt]
                if not flist.discard(buddy):
                    self._raise_not_on_list(buddy, order, imt)
                if not flist._count:
                    occ[imt] &= ~(1 << order)
                free_order[buddy] = -1
                if buddy < pfn:
                    pfn = buddy
                order += 1
            imt = mt_of(pfn)
            lists[order][imt].add(pfn)
            occ[imt] |= 1 << order
            free_order[pfn] = order
            free_mt[pfn] = imt
        self.nr_free += len(pfns) << first

    # ------------------------------------------------------------------
    # Bulk order-0 paths (cache warming, PCP refill, churn benchmarks)
    # ------------------------------------------------------------------

    def take_free_bulk(self, count: int, migratetype: MigrateType) -> np.ndarray:
        """Pop up to *count* order-0 frames from *migratetype*'s lists
        without marking them allocated; returns the popped head PFNs.

        Fast-path only: no fallback stealing and no watermark fault —
        the caller handles any shortfall through the scalar path (which
        preserves the fault-injection and fallback semantics).  For a
        ``"lifo"`` allocator the returned PFN sequence is exactly what
        the same number of scalar pops would produce: the order-0 list
        is drained most-recent-first, and when it runs dry the lowest
        non-empty order is split — a freshly split block is consumed
        top-down in full before any other block is touched, which is
        precisely the scalar cascade (each split re-inserts its low
        half, and LIFO pops always follow the newest insert).  Partial
        blocks are never consumed: the bulk path stops at a whole-block
        boundary so the allocator state matches the scalar state at the
        same allocation count.  Other directions fall back to scalar
        pops internally (identical sequence, less speedup).
        """
        if count <= 0 or _fs_watermark.armed:
            return _EMPTY_PFNS
        imt = int(migratetype)
        if self.prefer != "lifo":
            out = []
            while len(out) < count:
                pfn = self._rmqueue(0, migratetype, self.prefer)
                if pfn is None:
                    break
                out.append(pfn)
            return np.asarray(out, dtype=np.int64) if out else _EMPTY_PFNS
        occ = self._occ
        lists0 = self.free_lists[0]
        free_order = self.mem.free_order
        chunks: list[np.ndarray] = []
        got = 0
        while got < count:
            flist = lists0[imt]
            if flist:
                batch = flist.pop_many_lifo(count - got)
                free_order[batch] = -1
                self.nr_free -= batch.size
                got += batch.size
                chunks.append(batch)
                if not flist:
                    occ[imt] &= ~1
                continue
            occ[imt] &= ~1
            # Lowest non-empty higher order — the scalar bit-scan.
            bits = occ[imt] >> 1 << 1
            o = -1
            while bits:
                cand = (bits & -bits).bit_length() - 1
                bits &= bits - 1
                fl2 = self.free_lists[cand][imt]
                if fl2:
                    o = cand
                    break
                occ[imt] &= ~(1 << cand)
            if o < 0:
                break
            size = 1 << o
            if size > count - got:
                break  # leave partial blocks to the scalar path
            fl2 = self.free_lists[o][imt]
            pfn = fl2.pop_lifo()
            if not fl2:
                occ[imt] &= ~(1 << o)
            self.mem.free_order_mv[pfn] = -1
            self.nr_free -= size
            chunks.append(
                np.arange(pfn + size - 1, pfn - 1, -1, dtype=np.int64))
            got += size
        if not chunks:
            return _EMPTY_PFNS
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def alloc_bulk(
        self,
        count: int,
        migratetype: MigrateType,
        source: AllocSource = AllocSource.USER,
        now: int = 0,
        pinned: bool = False,
    ) -> np.ndarray:
        """Allocate up to *count* order-0 frames in one vectorised pass.

        Equivalent to repeated ``alloc(0, ...)`` calls — same PFNs, same
        order, same counters — but the frame marks are fancy-index
        writes instead of per-frame Python work.  May return fewer than
        *count* PFNs (see :meth:`take_free_bulk` for the fast-path-only
        contract); the caller completes the remainder through the scalar
        path, which keeps fallback stealing, watermark faults, and the
        kernel slow path bit-identical to a fully scalar run.
        """
        pfns = self.take_free_bulk(count, migratetype)
        if pfns.size == 0:
            return pfns
        self.mem.mark_allocated_bulk(
            pfns, migratetype, source, now, pinned)
        self.stat.inc(ev.ALLOC_SUCCESS, pfns.size)
        if _tp_alloc.enabled:
            for p in pfns.tolist():
                _tp_alloc.emit(ts=now, pfn=p, order=0,
                               mt=int(migratetype), source=int(source),
                               label=self.label)
        return pfns

    def free_bulk(self, pfns) -> None:
        """Free order-0 allocations headed at *pfns* in one pass.

        Order-normalised variant of ``for p in pfns: self.free(p)``: the
        batch is sorted, split into maximal contiguous runs, and each
        run is decomposed into its aligned power-of-two blocks — exactly
        the fixed point the scalar merge cascade reaches for frames
        whose buddies are also in the batch (buddy merging is confluent,
        so the normal form does not depend on free order).  Decomposed
        blocks whose outside buddy is free at the same order continue
        through the scalar cascade; the rest are inserted directly.  The
        final free-block set matches a scalar free loop; temporal list
        order within the batch differs — callers that need bit-identical
        trajectories with scalar frees keep using :meth:`free`.
        """
        arr = np.asarray(pfns, dtype=np.int64)
        if arr.size == 0:
            return
        mem = self.mem
        mem.mark_free_bulk(arr)
        self.stat.inc(ev.PAGES_FREED, arr.size)
        if _tp_free.enabled:
            for p in arr.tolist():
                _tp_free.emit(pfn=p, order=0, label=self.label)
        srt = np.sort(arr) if arr.size > 1 else arr
        gaps = np.diff(srt)
        if gaps.size and not gaps.all():
            raise ConfigurationError("free_bulk: duplicate pfn in batch")
        run_starts = np.concatenate(
            ([0], np.flatnonzero(gaps != 1) + 1, [srt.size]))
        free_order_mv = mem.free_order_mv
        start_pfn, end_pfn = self.start_pfn, self.end_pfn
        for i in range(run_starts.size - 1):
            s = int(srt[run_starts[i]])
            n = int(run_starts[i + 1] - run_starts[i])
            while n:
                # Largest aligned block at s that fits in the run.
                k = (s & -s).bit_length() - 1 if s else MAX_ORDER
                if k > MAX_ORDER:
                    k = MAX_ORDER
                while (1 << k) > n:
                    k -= 1
                buddy = s ^ (1 << k)
                if (k < MAX_ORDER and start_pfn <= buddy < end_pfn
                        and free_order_mv[buddy] == k):
                    # Cascade continues outside the batch.
                    self.free_block(s, k)
                else:
                    self._insert_free(s, k, self.pageblocks.get_int(s))
                s += 1 << k
                n -= 1 << k

    # ------------------------------------------------------------------
    # Targeted free-block capture (compaction / contig ranges / resizing)
    # ------------------------------------------------------------------

    def take_free_block(self, pfn: int) -> int:
        """Remove the specific free block headed at *pfn* from the lists,
        returning its order.  Used by the compaction free scanner."""
        order = self.mem.free_order_mv[pfn]
        if order < 0:
            raise ConfigurationError(f"pfn {pfn} is not a free-block head")
        self._remove_free(pfn)
        return order

    def take_free_split(self, pfn: int, want_order: int) -> int:
        """Capture a free block and split it down to *want_order*, returning
        the head PFN of the captured sub-block; the remainder returns to the
        free lists."""
        order = self.take_free_block(pfn)
        mt = self.pageblocks.get(pfn)
        return self._expand(pfn, order, want_order, mt, "low")

    def free_heads_in(self, start_pfn: int, end_pfn: int) -> list[int]:
        """Head PFNs of free buddy blocks inside ``[start_pfn, end_pfn)``."""
        sl = self.mem.free_order[start_pfn:end_pfn]
        return (np.flatnonzero(sl >= 0) + start_pfn).tolist()

    def move_freepages_block(self, block: int, new_mt: MigrateType) -> int:
        """Move every free block inside pageblock *block* to *new_mt*'s
        lists and retag the pageblock.  Returns frames moved.  This is
        Linux's ``move_freepages_block``, invoked when a fallback steals a
        whole pageblock."""
        start, end = self.pageblocks.block_range(block)
        # One vectorised scan yields both heads and their orders; the
        # orders must be snapshotted before _remove_free clears them.
        sl = self.mem.free_order[start:end]
        idx = np.flatnonzero(sl >= 0)
        orders = sl[idx].tolist()
        moved = 0
        for off, order in zip(idx.tolist(), orders):
            head = start + off
            self._remove_free(head)
            self._insert_free(head, order, new_mt)
            moved += 1 << order
        self.pageblocks.set_block(block, new_mt)
        return moved

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    #: Direction -> unbound FreeList pop method (dispatch table beats an
    #: if-chain on the hot path).
    _POP = {
        "low": FreeList.pop_lowest,
        "high": FreeList.pop_highest,
        "lifo": FreeList.pop_lifo,
    }

    def _rmqueue(self, order: int, mt: MigrateType, direction: str) -> int | None:
        """Pop the best free block of *mt* at order >= *order* and split."""
        imt = int(mt)
        occ = self._occ
        pop = self._POP[direction]
        # Exact-order fast path: the overwhelmingly common case is a hit
        # on the requested order's own list, with no split needed (so it
        # reads the list's count slot: truth-testing is a Python call).
        if occ[imt] >> order & 1:
            flist = self.free_lists[order][imt]
            if flist._count:
                pfn = pop(flist)
                if not flist._count:
                    occ[imt] &= ~(1 << order)
                self.mem.free_order_mv[pfn] = -1
                self.nr_free -= 1 << order
                return pfn
            occ[imt] &= ~(1 << order)  # stale bit: heal it
        # Candidate orders > order, lowest first — same visit sequence
        # as a full range scan, minus the empty lists.
        bits = occ[imt] >> (order + 1) << (order + 1)
        while bits:
            o = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            flist = self.free_lists[o][imt]
            if not flist:
                occ[imt] &= ~(1 << o)
                continue
            pfn = pop(flist)
            if not flist:
                occ[imt] &= ~(1 << o)
            self.mem.free_order_mv[pfn] = -1
            self.nr_free -= 1 << o
            return self._expand(pfn, o, order, mt, direction)
        return None

    def _alloc_fallback(self, order: int, mt: MigrateType, direction: str) -> int | None:
        """Steal from another migrate type, largest blocks first (Linux's
        ``__rmqueue_fallback``), optionally claiming the whole pageblock."""
        fbs = fallback_types(mt)
        occ = self._occ
        combined = 0
        for fb in fbs:
            combined |= occ[int(fb)]
        # Candidate orders <= MAX_ORDER, highest first, skipping orders
        # where every fallback list is empty.
        bits = combined >> order << order
        while bits:
            o = bits.bit_length() - 1
            bits &= ~(1 << o)
            for fb in fbs:
                flist = self.free_lists[o][fb]
                if not flist:
                    occ[int(fb)] &= ~(1 << o)
                    continue
                pfn = self._POP[direction](flist)
                if not flist:
                    occ[int(fb)] &= ~(1 << o)
                self.mem.free_order_mv[pfn] = -1
                self.nr_free -= 1 << o
                self.stat.inc(ev.ALLOC_FALLBACK)
                if _tp_fallback.enabled:
                    _tp_fallback.emit(pfn=pfn, have_order=o, want_order=order,
                                      from_mt=int(fb), to_mt=int(mt),
                                      label=self.label)
                if should_steal_pageblock(mt, o):
                    block = self.mem.pageblock_of(pfn)
                    if self.pageblocks.get_block(block) != mt:
                        self.move_freepages_block(block, mt)
                        self.stat.inc(ev.PAGEBLOCK_STEAL)
                        if _tp_steal.enabled:
                            _tp_steal.emit(block=block, to_mt=int(mt),
                                           label=self.label)
                    tail_mt = mt
                else:
                    tail_mt = fb
                return self._expand(pfn, o, order, mt, direction,
                                    tail_mt=tail_mt)
        return None

    def _expand(
        self,
        pfn: int,
        have_order: int,
        want_order: int,
        mt: MigrateType,
        direction: str,
        tail_mt: MigrateType | None = None,
    ) -> int:
        """Split a captured block of *have_order* down to *want_order*,
        returning unused halves to the free lists.

        With ``direction == "high"`` the caller receives the highest-addressed
        sub-block so that a high-preferring allocator fills memory from the
        top down.
        """
        tail_mt = mt if tail_mt is None else tail_mt
        for o in range(have_order - 1, want_order - 1, -1):
            if direction == "low":
                self._insert_free(pfn + (1 << o), o, tail_mt)
            else:
                self._insert_free(pfn, o, tail_mt)
                pfn += 1 << o
        return pfn

    def _insert_free(self, pfn: int, order: int, mt: MigrateType | int) -> None:
        # ``mt`` may be a plain int on hot paths; IntEnum keys hash and
        # compare equal to their values, so the dict lookup is identical.
        imt = int(mt)
        self.free_lists[order][imt].add(pfn)
        self._occ[imt] |= 1 << order
        mem = self.mem
        mem.free_order_mv[pfn] = order
        mem.free_mt_mv[pfn] = imt
        self.nr_free += 1 << order

    def _remove_free(self, pfn: int) -> None:
        mem = self.mem
        order = mem.free_order_mv[pfn]
        imt = mem.free_mt_mv[pfn]
        flist = self.free_lists[order][imt]
        if not flist.discard(pfn):
            self._raise_not_on_list(pfn, order, imt)
        if not flist:
            self._occ[imt] &= ~(1 << order)
        mem.free_order_mv[pfn] = -1
        self.nr_free -= 1 << order

    def _raise_not_on_list(self, pfn: int, order: int, imt: int) -> None:
        raise FreelistDivergenceError(
            f"{self.label}: free block not on list "
            f"order={order} mt={imt}", pfn=pfn)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def free_frames_by_type(self) -> dict[MigrateType, int]:
        """Free frames currently on each migrate type's lists."""
        out = {mt: 0 for mt in MigrateType}
        for order, lists in enumerate(self.free_lists):
            for mt, flist in lists.items():
                out[mt] += len(flist) << order
        return out

    def largest_free_order(self) -> int:
        """Largest order with any free block, or -1 if nothing is free."""
        occ = self._occ
        while True:
            combined = 0
            for b in occ:
                combined |= b
            if not combined:
                return -1
            o = combined.bit_length() - 1
            lists = self.free_lists[o]
            if any(lists[mt] for mt in MigrateType):
                return o
            for mt in MigrateType:  # all empty at o: heal stale bits
                occ[int(mt)] &= ~(1 << o)

    def check_consistency(self) -> None:
        """Verify free-list bookkeeping against the frame arrays.

        Delegates to the runtime sanitizer's sweep
        (:func:`repro.analysis.sanitizer.verify_allocator`), which raises
        typed :class:`~repro.errors.FreelistDivergenceError` /
        :class:`~repro.errors.MigratetypeDriftError` — so the check fires
        identically under ``python -O``.  O(free blocks).
        """
        from ..analysis.sanitizer import verify_allocator

        verify_allocator(self)
