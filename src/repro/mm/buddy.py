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

Free lists.  Linux threads its free lists through ``struct page`` —
the list nodes *are* the frames — and so does this allocator: the
links are the ``free_next``/``free_prev``/``free_list_id`` columns of
:class:`~repro.mm.physmem.PhysicalMemory`, and each list's head, tail,
member count and address heaps are one row of a flat table in the
allocator, list ``order * 3 + migratetype``.  Membership, append,
unlink and the LIFO pop are O(1) column reads and writes.  Why three
pops exist:

* ``"lifo"`` is stock Linux: a freed block is appended at the tail and
  the next allocation takes it.  That temporal order is what scatters
  allocations across the address space on a busy machine, so the
  Linux-baseline fragmentation depends on it.
* ``"low"`` / ``"high"`` give address order, which Contiguitas's
  placement policy needs — "the free block farthest from the region
  border" means ordered extraction from either end.

Address order is two-mode.  A list serving only LIFO pops (every stock
Linux list) carries no heap bookkeeping.  The first address pop builds a
min/max heap pair by walking the list's own chain and sorting it —
O(len(list)), never a scan of a per-frame column.  From then on the list
stays in address mode: links push eagerly and unlinks leave stale
entries, which pops recognise by ``free_list_id``.  Once removals since
the last rebuild exceed ``max(_COMPACT_MIN, live)`` the heaps are
rebuilt from the live set, and a list that empties clears its heaps in
place and keeps them.  Pops are value-based, so neither changes a pop
order.

Invariants (:func:`repro.analysis.sanitizer.verify_allocator` audits
them): a frame's ``free_list_id`` names list *l* exactly when it is
linked on *l*; the walk from a head closes through the links at its
tail after ``count`` members; ``free_order``/``free_mt`` of a member name
its list; bit *o* of ``_occ[mt]`` is set exactly when list (*o*, *mt*)
is non-empty; heap staleness stays within the rebuild bound.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from ..errors import ConfigurationError, FreelistDivergenceError
from ..faults import fault_site
from ..telemetry import tracepoint
from ..units import MAX_ORDER, PAGEBLOCK_FRAMES
from . import vmstat as ev
from .fallback import fallback_types, should_steal_pageblock
from .page import AllocSource, MigrateType
from .pageblock import PageblockTable
from .physmem import (
    _F_ALLOCATED,
    _F_HEAD,
    _F_PINNED,
    _SCALAR_MARK_ORDER,
    PhysicalMemory,
)

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

_NMT = len(MigrateType)
#: One free list per (order, migrate type): list ``order * _NMT + mt``.
_NLISTS = (MAX_ORDER + 1) * _NMT
#: Heap rebuilds never trigger below this many removals, so small lists
#: are not churned; above it, a >50 % stale fraction triggers one.
_COMPACT_MIN = 64


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

        # The free-list table, one row per list.  List ``li`` links its
        # frames under ``free_list_id == _lid0 + li``.
        self._lid0 = mem.reserve_list_ids(_NLISTS)
        self._head = [-1] * _NLISTS
        self._tail = [-1] * _NLISTS
        self._count = [0] * _NLISTS
        #: Address heaps (min, and max as negated PFNs); ``None`` while
        #: the list has only ever served LIFO pops.
        self._min_heap: list[list[int] | None] = [None] * _NLISTS
        self._max_heap: list[list[int] | None] = [None] * _NLISTS
        #: Unlinks since the last heap rebuild — an upper bound on the
        #: stale entries in either heap.
        self._removals = [0] * _NLISTS
        #: Per-migratetype occupancy bitmaps: bit *o* of ``_occ[mt]`` is
        #: set exactly when list (*o*, *mt*) is non-empty, so a search
        #: visits only the orders that can serve it.
        self._occ: list[int] = [0] * _NMT
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

    # ------------------------------------------------------------------
    # Snapshot (the checkpoint schema)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The managed range and the free-list table as stored, heaps
        (stale entries included) concatenated in list order, min heap
        before max heap; a list that has only served LIFO pops has
        length -1."""
        heaps = [h for pair in zip(self._min_heap, self._max_heap)
                 for h in pair]
        return {"table": {
            "range": [self.start_block, self.end_block],
            "head": self._head, "tail": self._tail, "count": self._count,
            "removals": self._removals, "occ": self._occ,
            "nr_free": self.nr_free,
            "heap_lens": [-1 if h is None else len(h) for h in heaps]},
            "heaps": np.array([pfn for h in heaps if h for pfn in h],
                              dtype=np.int64)}

    def restore(self, state) -> None:
        """Load a :meth:`snapshot` into this allocator, freshly built
        over the same memory."""
        table = state["table"]
        self.start_block, self.end_block = table["range"]
        for name in ("head", "tail", "count", "removals", "occ"):
            column = getattr(self, "_" + name)
            if len(table[name]) != len(column):
                raise ValueError(f"{self.label}: {name} has "
                                 f"{len(table[name])} entries")
            column[:] = table[name]
        self.nr_free = table["nr_free"]
        flat, at, heaps = state["heaps"].tolist(), 0, []
        for n in table["heap_lens"]:
            heaps.append(None if n < 0 else flat[at:at + n])
            at += max(n, 0)
        if at != len(flat) or len(heaps) != 2 * _NLISTS:
            raise ValueError(f"{self.label}: heap lengths do not add up")
        self._min_heap[:] = heaps[0::2]
        self._max_heap[:] = heaps[1::2]

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
        if order > _SCALAR_MARK_ORDER or not self._count[
                order * _NMT + migratetype]:
            return self._alloc_split(order, migratetype, source, now, pinned,
                                     direction)
        # Hot: a hit on the requested list needs no split, and a block
        # of at most eight frames is marked through the memoryviews here
        # (mark_allocated's scalar path, same checks and typed error).
        pfn = self._take(order, migratetype, direction)
        mem = self.mem
        flags_mv = mem.flags_mv
        body = (_F_ALLOCATED | _F_PINNED) if pinned else _F_ALLOCATED
        if order:
            end = pfn + (1 << order)
            mt_mv, source_mv = mem.migratetype_mv, mem.source_mv
            head_mv = mem.head_of_mv
            for p in range(pfn, end):
                if flags_mv[p]:
                    mem._raise_double_alloc(pfn, order)
            for p in range(pfn, end):
                flags_mv[p] = body
                mt_mv[p] = migratetype
                source_mv[p] = source
                head_mv[p] = pfn
        else:
            if flags_mv[pfn]:
                mem._raise_double_alloc(pfn, 0)
            mem.migratetype_mv[pfn] = migratetype
            mem.source_mv[pfn] = source
            mem.head_of_mv[pfn] = pfn
        flags_mv[pfn] = body | _F_HEAD
        mem.alloc_order_mv[pfn] = order
        mem.birth_mv[pfn] = now
        if mem.sanitizer is not None:
            mem.sanitizer.note_alloc(pfn, order, now)
        self.stat.inc(ev.ALLOC_SUCCESS)
        if _tp_alloc.enabled:
            _tp_alloc.emit(ts=now, pfn=pfn, order=order,
                           mt=int(migratetype), source=int(source),
                           label=self.label)
        return pfn

    def _alloc_split(self, order, migratetype, source, now, pinned,
                     direction) -> int | None:
        """:meth:`alloc` when the requested list cannot serve it as is:
        split a larger block, else fall back, else fail."""
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
        mem = self.mem
        order = mem.alloc_order_mv[pfn]
        if order:   # not an order-0 head: mark_free clears or refuses it
            order = mem.mark_free(pfn)
        else:
            mem.flags_mv[pfn] = 0
            mem.alloc_order_mv[pfn] = -1
            if mem.sanitizer is not None:
                mem.sanitizer.note_free(pfn, 0)
        self.stat.inc(ev.PAGES_FREED, 1 << order)
        if _tp_free.enabled:
            _tp_free.emit(pfn=pfn, order=order, label=self.label)
        self.free_blocks((pfn,), order)
        return order

    def free_run(self, pfns: list[int]) -> None:
        """:meth:`free` of each order-0 allocation headed in *pfns*, in
        order — same marks, counters, tracepoints and free lists — with
        one counter bump and one cascade call for the run."""
        mem = self.mem
        flags_mv, order_mv = mem.flags_mv, mem.alloc_order_mv
        san = mem.sanitizer
        for pfn in pfns:
            if order_mv[pfn]:   # the run holds order-0 heads only
                mem._raise_bad_free(pfn)
            flags_mv[pfn] = 0
            order_mv[pfn] = -1
            if san is not None:
                san.note_free(pfn, 0)
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
        """:meth:`free_block` of each head in *pfns*, in order: the one
        merge cascade."""
        # Hot: every guard is resolved once per call, and the unlink of
        # each merged buddy and the final link are written out over the
        # columns and the list table.
        mem = self.mem
        free_order, free_mt = mem.free_order_mv, mem.free_mt_mv
        nxt_mv, prv_mv = mem.free_next_mv, mem.free_prev_mv
        lid_mv = mem.free_list_id_mv
        start_pfn = self.start_block * PAGEBLOCK_FRAMES
        end_pfn = self.end_block * PAGEBLOCK_FRAMES
        head, tail, count = self._head, self._tail, self._count
        min_heap, occ, lid0 = self._min_heap, self._occ, self._lid0
        block_mt = self.pageblocks._types_mv
        first = order
        for pfn in pfns:
            order = first
            while order < MAX_ORDER:
                buddy = pfn ^ (1 << order)
                if (buddy < start_pfn or buddy >= end_pfn
                        or free_order[buddy] != order):
                    break
                imt = free_mt[buddy]
                li = order * _NMT + imt
                if lid_mv[buddy] != lid0 + li:
                    self._raise_not_on_list(buddy, order, imt)
                nxt = nxt_mv[buddy]
                prv = prv_mv[buddy]
                if prv >= 0:
                    nxt_mv[prv] = nxt
                else:
                    head[li] = nxt
                if nxt >= 0:
                    prv_mv[nxt] = prv
                else:
                    tail[li] = prv
                lid_mv[buddy] = 0
                n = count[li] = count[li] - 1
                if not n:
                    occ[imt] &= ~(1 << order)
                if min_heap[li] is not None:
                    self._shrink_heaps(li, n)
                free_order[buddy] = -1
                if buddy < pfn:
                    pfn = buddy
                order += 1
            imt = block_mt[pfn // PAGEBLOCK_FRAMES]
            li = order * _NMT + imt
            if lid_mv[pfn]:
                self._raise_linked(pfn)
            lid_mv[pfn] = lid0 + li
            last = tail[li]
            prv_mv[pfn] = last
            nxt_mv[pfn] = -1
            if last >= 0:
                nxt_mv[last] = pfn
            else:
                head[li] = pfn
            tail[li] = pfn
            count[li] += 1
            occ[imt] |= 1 << order
            heap = min_heap[li]
            if heap is not None:
                heappush(heap, pfn)
                heappush(self._max_heap[li], -pfn)
            free_order[pfn] = order
            free_mt[pfn] = imt
        self.nr_free += len(pfns) << first

    # ------------------------------------------------------------------
    # Bulk order-0 paths (cache warming, PCP refill)
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
                pfn = self._rmqueue(0, imt, self.prefer)
                if pfn is None:
                    break
                out.append(pfn)
            return np.asarray(out, dtype=np.int64) if out else _EMPTY_PFNS
        mem = self.mem
        prv_mv = mem.free_prev_mv
        occ, live = self._occ, self._count
        chunks: list[np.ndarray] = []
        got = 0
        while got < count:
            n = live[imt]             # the order-0 list: li == imt
            if n:
                # Walk k members back from the tail: the LIFO pops.
                k = min(n, count - got)
                pfn = self._tail[imt]
                out = []
                for _ in range(k):
                    out.append(pfn)
                    pfn = prv_mv[pfn]
                batch = np.asarray(out, dtype=np.int64)
                mem.free_list_id[batch] = 0
                mem.free_order[batch] = -1
                self._tail[imt] = pfn
                if pfn >= 0:
                    mem.free_next_mv[pfn] = -1
                else:
                    self._head[imt] = -1
                live[imt] = n - k
                if n == k:
                    occ[imt] &= ~1
                if self._min_heap[imt] is not None:
                    self._shrink_heaps(imt, n - k, k)
                self.nr_free -= k
                got += k
                chunks.append(batch)
                continue
            bits = occ[imt] >> 1
            if not bits:
                break
            o = (bits & -bits).bit_length()     # lowest non-empty order
            size = 1 << o
            if size > count - got:
                break  # leave partial blocks to the scalar path
            pfn = self._take(o, imt, "lifo")
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

    def _rmqueue(self, order: int, mt: MigrateType | int,
                 direction: str) -> int | None:
        """Pop the best free block of *mt* at order >= *order* and split."""
        if self._count[order * _NMT + mt]:
            return self._take(order, mt, direction)
        bits = self._occ[mt] >> (order + 1)
        if not bits:
            return None
        o = order + (bits & -bits).bit_length()   # lowest order above
        return self._expand(self._take(o, mt, direction), o, order, mt,
                            direction)

    def _alloc_fallback(self, order: int, mt: MigrateType, direction: str) -> int | None:
        """Steal from another migrate type, largest blocks first (Linux's
        ``__rmqueue_fallback``), optionally claiming the whole pageblock."""
        fbs = fallback_types(mt)
        occ = self._occ
        bits = 0
        for fb in fbs:
            bits |= occ[fb]
        bits >>= order
        if not bits:
            return None
        o = order + bits.bit_length() - 1
        fb = next(fb for fb in fbs if occ[fb] >> o & 1)
        pfn = self._take(o, fb, direction)
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
            halves_mt = mt
        else:
            halves_mt = fb
        return self._expand(pfn, o, order, halves_mt, direction)

    def _expand(
        self,
        pfn: int,
        have_order: int,
        want_order: int,
        imt: MigrateType | int,
        direction: str,
    ) -> int:
        """Split a captured block of *have_order* down to *want_order*,
        returning unused halves to migrate type *imt*'s free lists.

        With ``direction == "high"`` the caller receives the highest-addressed
        sub-block so that a high-preferring allocator fills memory from the
        top down.
        """
        mem = self.mem
        nxt_mv, prv_mv = mem.free_next_mv, mem.free_prev_mv
        lid_mv = mem.free_list_id_mv
        head, tail, count = self._head, self._tail, self._count
        min_heap, lid0 = self._min_heap, self._lid0
        low = direction == "low"
        for o in range(have_order - 1, want_order - 1, -1):
            if low:
                half = pfn + (1 << o)
            else:
                half = pfn
                pfn += 1 << o
            li = o * _NMT + imt
            if lid_mv[half]:
                self._raise_linked(half)
            lid_mv[half] = lid0 + li
            last = tail[li]
            prv_mv[half] = last
            nxt_mv[half] = -1
            if last >= 0:
                nxt_mv[last] = half
            else:
                head[li] = half
            tail[li] = half
            count[li] += 1
            heap = min_heap[li]
            if heap is not None:
                heappush(heap, half)
                heappush(self._max_heap[li], -half)
            mem.free_order_mv[half] = o
            mem.free_mt_mv[half] = imt
        self._occ[imt] |= (1 << have_order) - (1 << want_order)
        self.nr_free += (1 << have_order) - (1 << want_order)
        return pfn

    def _take(self, order: int, mt: MigrateType | int,
              direction: str) -> int:
        """Unlink the head *direction* picks from non-empty list
        (*order*, *mt*) — its newest (``"lifo"``), lowest or highest —
        and clear its free-head mark; returns it."""
        li = order * _NMT + mt
        mem = self.mem
        nxt_mv, prv_mv = mem.free_next_mv, mem.free_prev_mv
        if direction == "lifo":
            pfn = self._tail[li]
            nxt = -1
        else:
            lid_mv = mem.free_list_id_mv
            ident = self._lid0 + li
            if self._min_heap[li] is None:
                self._build_heaps(li)
            # A heap entry is live while the frame is still on this list.
            if direction == "low":
                heap = self._min_heap[li]
                pfn = heappop(heap)
                while lid_mv[pfn] != ident:
                    pfn = heappop(heap)
            else:
                heap = self._max_heap[li]
                pfn = -heappop(heap)
                while lid_mv[pfn] != ident:
                    pfn = -heappop(heap)
            nxt = nxt_mv[pfn]
        prv = prv_mv[pfn]
        if prv >= 0:
            nxt_mv[prv] = nxt
        else:
            self._head[li] = nxt
        if nxt >= 0:
            prv_mv[nxt] = prv
        else:
            self._tail[li] = prv
        mem.free_list_id_mv[pfn] = 0
        n = self._count[li] = self._count[li] - 1
        if not n:
            self._occ[mt] &= ~(1 << order)
        if self._min_heap[li] is not None:
            self._shrink_heaps(li, n)
        mem.free_order_mv[pfn] = -1
        self.nr_free -= 1 << order
        return pfn

    def _link(self, li: int, pfn: int) -> None:
        """Append *pfn*, which no list links, at list *li*'s tail."""
        mem = self.mem
        lid_mv = mem.free_list_id_mv
        if lid_mv[pfn]:
            self._raise_linked(pfn)
        lid_mv[pfn] = self._lid0 + li
        last = self._tail[li]
        mem.free_prev_mv[pfn] = last
        mem.free_next_mv[pfn] = -1
        if last >= 0:
            mem.free_next_mv[last] = pfn
        else:
            self._head[li] = pfn
        self._tail[li] = pfn
        self._count[li] += 1
        self._occ[li % _NMT] |= 1 << li // _NMT
        if self._min_heap[li] is not None:
            heappush(self._min_heap[li], pfn)
            heappush(self._max_heap[li], -pfn)

    def _unlink(self, li: int, pfn: int) -> None:
        """Remove member *pfn* from list *li*."""
        mem = self.mem
        nxt_mv, prv_mv = mem.free_next_mv, mem.free_prev_mv
        nxt = nxt_mv[pfn]
        prv = prv_mv[pfn]
        if prv >= 0:
            nxt_mv[prv] = nxt
        else:
            self._head[li] = nxt
        if nxt >= 0:
            prv_mv[nxt] = prv
        else:
            self._tail[li] = prv
        mem.free_list_id_mv[pfn] = 0
        n = self._count[li] = self._count[li] - 1
        if not n:
            self._occ[li % _NMT] &= ~(1 << li // _NMT)
        if self._min_heap[li] is not None:
            self._shrink_heaps(li, n)

    def _insert_free(self, pfn: int, order: int, mt: MigrateType | int) -> None:
        self._link(order * _NMT + mt, pfn)
        mem = self.mem
        mem.free_order_mv[pfn] = order
        mem.free_mt_mv[pfn] = mt
        self.nr_free += 1 << order

    def _remove_free(self, pfn: int) -> None:
        mem = self.mem
        order = mem.free_order_mv[pfn]
        imt = mem.free_mt_mv[pfn]
        li = order * _NMT + imt
        if mem.free_list_id_mv[pfn] != self._lid0 + li:
            self._raise_not_on_list(pfn, order, imt)
        self._unlink(li, pfn)
        mem.free_order_mv[pfn] = -1
        self.nr_free -= 1 << order

    def _raise_not_on_list(self, pfn: int, order: int, imt: int) -> None:
        raise FreelistDivergenceError(
            f"{self.label}: free block not on list "
            f"order={order} mt={imt}", pfn=pfn)

    def _raise_linked(self, pfn: int) -> None:
        raise FreelistDivergenceError(
            f"frame already linked on list "
            f"{self.mem.free_list_id_mv[pfn]}", pfn=pfn)

    # -- address heaps ---------------------------------------------------

    def _build_heaps(self, li: int) -> None:
        """Address heaps of list *li* from its chain — O(len(list)),
        whatever the memory size; a sorted list is a valid min-heap."""
        live = sorted(self._walk(li))
        self._min_heap[li] = live
        self._max_heap[li] = [-p for p in reversed(live)]
        self._removals[li] = 0

    def _shrink_heaps(self, li: int, live: int, removed: int = 1) -> None:
        """Heap bookkeeping once *removed* members left address-mode
        list *li*, *live* staying: an emptied list clears its heaps and
        keeps them (so a refill pushes instead of rebuilding); past the
        staleness bound they are rebuilt from the live set."""
        if not live:
            self._min_heap[li].clear()
            self._max_heap[li].clear()
            self._removals[li] = 0
            return
        r = self._removals[li] = self._removals[li] + removed
        if r > _COMPACT_MIN and r > live:
            self._build_heaps(li)

    def _walk(self, li: int):
        """Members of list *li* head to tail (oldest first), guarding
        against link corruption (a cycle would otherwise hang)."""
        nxt_mv = self.mem.free_next_mv
        limit = self._count[li]
        pfn = self._head[li]
        seen = 0
        while pfn >= 0:
            seen += 1
            if seen > limit:
                raise FreelistDivergenceError(
                    f"{self.label}: free-list walk exceeds member count "
                    f"(link cycle?)", pfn=pfn)
            yield pfn
            pfn = nxt_mv[pfn]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def largest_free_order(self) -> int:
        """Largest order with any free block, or -1 if nothing is free."""
        combined = 0
        for bits in self._occ:
            combined |= bits
        return combined.bit_length() - 1

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
