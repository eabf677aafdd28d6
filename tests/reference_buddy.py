"""A naive buddy allocator: the reference the fused allocator core is
checked against (``test_reference_buddy.py``).

Pop order is part of every digest — which block a pop takes, where a
split's halves go, what a merge builds — so the model makes the same
choices as ``repro.mm.buddy`` in the plainest way it can:

* one insertion-ordered ``dict`` per (order, migratetype), used as a
  set: LIFO takes the last key, address order ``min``/``max``;
* a pageblock migratetype map, shared by sibling allocators;
* fallback stealing as ``repro.mm.fallback`` decides it;
* no fast paths, bitmaps, heaps or bulk paths — a bulk allocation is
  the scalar pops it stands for — and every page has a name.

``RefKernel`` adds what the kernels layer on top: request routing, the
reclaim LRU, compaction's two scanners and hwpoison offlining.  It
serves only what the allocator's fast path serves (``alloc`` returns
None where a kernel would enter its slow path).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.mm.fallback import fallback_types, should_steal_pageblock
from repro.mm.page import AllocSource, MigrateType
from repro.units import MAX_ORDER, PAGEBLOCK_FRAMES as PB

MTS = tuple(MigrateType)


class RefBuddy:
    """Buddy allocator over pageblocks ``[start_block, end_block)``."""

    def __init__(self, blocks: list, start_block: int, end_block: int,
                 prefer: str, fallback: bool) -> None:
        self.blocks = blocks                 # pageblock -> migratetype
        self.start, self.end = start_block * PB, end_block * PB
        self.prefer, self.fallback = prefer, fallback
        self.lists = {(o, mt): {} for o in range(MAX_ORDER + 1) for mt in MTS}
        self.free_heads: dict[int, tuple[int, MigrateType]] = {}
        for block in range(start_block, end_block):
            self._insert(block * PB, MAX_ORDER, blocks[block])

    def _insert(self, pfn: int, order: int, mt) -> None:
        mt = MigrateType(mt)
        self.lists[order, mt][pfn] = None
        self.free_heads[pfn] = (order, mt)

    def _remove(self, pfn: int) -> int:
        order, mt = self.free_heads.pop(pfn)
        del self.lists[order, mt][pfn]
        return order

    def _pop(self, order: int, mt, direction: str) -> int:
        members = self.lists[order, mt]
        if direction == "lifo":
            pfn = next(reversed(members))
        else:
            pfn = (min if direction == "low" else max)(members)
        self._remove(pfn)
        return pfn

    def _split(self, pfn, have, want, mt, direction) -> int:
        for o in range(have - 1, want - 1, -1):
            if direction == "low":
                self._insert(pfn + (1 << o), o, mt)
            else:
                self._insert(pfn, o, mt)
                pfn += 1 << o
        return pfn

    def take(self, order: int, mt, direction: str | None = None):
        """A block of *mt* at the lowest order >= *order* that has one."""
        direction = direction or self.prefer
        for o in range(order, MAX_ORDER + 1):
            if self.lists[o, mt]:
                pfn = self._pop(o, mt, direction)
                return self._split(pfn, o, order, mt, direction)
        return None

    def steal(self, order: int, mt, direction: str):
        """Another type's block, largest first; maybe the whole pageblock."""
        for o in range(MAX_ORDER, order - 1, -1):
            for fb in fallback_types(mt):
                if not self.lists[o, fb]:
                    continue
                pfn = self._pop(o, fb, direction)
                halves = fb
                if should_steal_pageblock(mt, o):
                    halves = mt
                    block = pfn // PB
                    if self.blocks[block] != mt:
                        for head in sorted(h for h in self.free_heads
                                           if h // PB == block):
                            self._insert(head, self._remove(head), mt)
                        self.blocks[block] = mt
                return self._split(pfn, o, order, halves, direction)
        return None

    def alloc(self, order: int, mt, direction: str | None = None):
        pfn = self.take(order, mt, direction)
        if pfn is None and self.fallback:
            pfn = self.steal(order, mt, direction or self.prefer)
        return pfn

    def bulk(self, count: int, mt) -> list[int]:
        """``alloc_bulk``: scalar order-0 pops; a LIFO allocator stops
        short of a block it could not use whole."""
        out: list[int] = []
        while len(out) < count:
            if self.prefer == "lifo" and not self.lists[0, mt]:
                o = next((o for o in range(1, MAX_ORDER + 1)
                          if self.lists[o, mt]), None)
                if o is None or 1 << o > count - len(out):
                    break
            pfn = self.take(0, mt)
            if pfn is None:
                break
            out.append(pfn)
        return out

    def free(self, pfn: int, order: int) -> None:
        while order < MAX_ORDER:
            buddy = pfn ^ (1 << order)
            if (not self.start <= buddy < self.end
                    or self.free_heads.get(buddy, (-1,))[0] != order):
                break
            self._remove(buddy)
            pfn, order = min(pfn, buddy), order + 1
        self._insert(pfn, order, self.blocks[pfn // PB])

    def capture(self, pfn: int, want: int) -> int:
        """``take_free_split``: the free block headed at *pfn*, split low."""
        return self._split(pfn, self._remove(pfn), want,
                           self.blocks[pfn // PB], "low")

    def largest(self) -> int:
        return max((o for o, _ in self.free_heads.values()), default=-1)


class Page:
    def __init__(self, seq, pfn, order, mt, source, pinned,
                 reclaimable) -> None:
        self.seq = seq                      # allocation order
        self.pfn, self.order, self.mt, self.source = pfn, order, mt, source
        self.pinned, self.reclaimable, self.freed = pinned, reclaimable, False


class RefKernel:
    """``LinuxKernel`` (*boundary* None) or ``ContiguitasKernel`` routing
    over :class:`RefBuddy` regions."""

    def __init__(self, nblocks: int, boundary: int | None) -> None:
        self.blocks = [MigrateType.MOVABLE] * nblocks
        if boundary is None:
            self.regions = [RefBuddy(self.blocks, 0, nblocks, "lifo", True)]
        else:
            self.blocks[boundary:] = [MigrateType.UNMOVABLE] * (
                nblocks - boundary)
            self.regions = [
                RefBuddy(self.blocks, 0, boundary, "lifo", False),
                RefBuddy(self.blocks, boundary, nblocks, "lifo", False)]
        self.pages: list[Page] = []          # live, allocation order
        self.pinned: set[Page] = set()       # the live pinned ones
        self.allocated = 0                   # pages ever allocated
        self.lru: OrderedDict[Page, None] = OrderedDict()
        self.offlined: set[int] = set()
        self.deferred: set[int] = set()

    def region_of(self, pfn: int) -> RefBuddy:
        return next(r for r in self.regions if r.start <= pfn < r.end)

    def route(self, source, mt, pinned):
        if len(self.regions) == 1:
            return self.regions[0], mt, None
        if pinned or source is not AllocSource.USER or mt != MigrateType.MOVABLE:
            return self.regions[1], MigrateType.UNMOVABLE, "high"
        return self.regions[0], MigrateType.MOVABLE, None

    def _new(self, pfn, order, mt, source, pinned, reclaimable) -> Page:
        page = Page(self.allocated, pfn, order, mt, source, pinned,
                    reclaimable)
        self.allocated += 1
        self.pages.append(page)
        if pinned:
            self.pinned.add(page)
        if reclaimable:
            self.lru[page] = None
        return page

    def alloc(self, order, source, mt, pinned, reclaimable) -> Page | None:
        region, mt, direction = self.route(source, mt, pinned)
        pfn = region.alloc(order, mt, direction)
        return None if pfn is None else self._new(
            pfn, order, mt, source, pinned, reclaimable)

    def bulk(self, count, source, mt, reclaimable) -> list[Page]:
        region, mt, direction = self.route(source, mt, False)
        if direction is not None:
            return []
        return [self._new(pfn, 0, mt, source, False, reclaimable)
                for pfn in region.bulk(count, mt)]

    def free(self, page: Page) -> None:
        page.freed = True
        self.pages.remove(page)
        self.pinned.discard(page)
        self.lru.pop(page, None)
        self.region_of(page.pfn).free(page.pfn, page.order)
        for pfn in sorted(p for p in self.deferred
                          if page.pfn <= p < page.pfn + (1 << page.order)):
            self._offline(pfn)

    def pin(self, page: Page) -> bool:
        """``pin_pages``: Contiguitas first moves a movable-region page
        into the unmovable region, next to the border; False when that
        region has no block for it (the kernel would grow the region)."""
        if len(self.regions) > 1 and page.pfn < self.regions[1].start:
            dst = self.regions[1].take(page.order, MigrateType.UNMOVABLE,
                                       "low")
            if dst is None:
                return False
            self.regions[0].free(page.pfn, page.order)
            page.pfn = dst
        page.pinned = True
        self.pinned.add(page)
        return True

    def unpin(self, page: Page) -> None:
        page.pinned = False
        self.pinned.discard(page)

    def reclaim(self, target: int) -> int:
        freed = 0
        while freed < target and self.lru:
            page = next(iter(self.lru))
            freed += 1 << page.order
            self.free(page)
        return freed

    def owner(self, pfn: int) -> Page | None:
        return next((p for p in self.pages
                     if p.pfn <= pfn < p.pfn + (1 << p.order)), None)

    def memory_failure(self, pfn: int) -> None:
        """A free frame goes offline now, one in an unmovable page when
        the page is freed (callers leave movable pages alone)."""
        if pfn in self.offlined or pfn in self.deferred:
            return
        if self.owner(pfn) is None:
            self._offline(pfn)
        else:
            self.deferred.add(pfn)

    def _offline(self, pfn: int) -> None:
        """Take *pfn*'s free block off its list and give back the rest:
        at each order, the half without *pfn* (what freeing the other
        frames one by one merges into)."""
        region = self.region_of(pfn)
        head = next(pfn & -(1 << o) for o in range(MAX_ORDER + 1)
                    if region.free_heads.get(pfn & -(1 << o), (-1,))[0] == o)
        for o in range(region._remove(head) - 1, -1, -1):
            if pfn < head + (1 << o):
                half = head + (1 << o)
            else:
                half, head = head, head + (1 << o)
            region._insert(half, o, region.blocks[half // PB])
        self.deferred.discard(pfn)
        self.offlined.add(pfn)

    def compact(self, region: RefBuddy, target_order: int, budget: int) -> None:
        """The migration scanner from the bottom, the free scanner from
        the top, until they meet, the budget is spent or a block of
        *target_order* is free."""
        floor, migrated = region.end // PB, 0
        for block in range(region.start // PB, region.end // PB):
            if block >= floor or region.largest() >= target_order:
                return
            heads = sorted((p.pfn, p) for p in self.pages
                           if p.pfn // PB == block)
            for src, page in heads:
                if migrated >= budget:
                    return
                if page.pinned or page.source is not AllocSource.USER:
                    continue
                above = [h for h, (o, _) in region.free_heads.items()
                         if h > src and o >= page.order]
                if not above:
                    continue
                dst = max(above)
                floor = min(floor, dst // PB)
                page.pfn = region.capture(dst, page.order)
                region.free(src, page.order)
                migrated += 1 << page.order
