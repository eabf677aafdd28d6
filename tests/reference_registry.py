"""A plain-dict handle registry: the reference ``HandleRegistry`` is
checked against (``test_registry_model.py``).

Every page — registered one by one or in a batch — is one :class:`Page`
record holding its fields and its slot, filed under its head PFN while
it lives, so the model knows what a slot resolves to after its page
moved or was freed.  The reclaim LRU is one
``OrderedDict`` of reclaimable pages in registration order: reclaim
frees from the oldest end, as ``ReclaimLRU`` does with no page pinned.
No columns, no slot table, no lazy building.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(eq=False)
class Page:
    pfn: int
    order: int
    migratetype: int
    source: int
    birth: int
    reclaimable: bool
    slot: int
    freed: bool = False

    def fields(self) -> tuple:
        """What a handle says: all of it while it lives; once freed,
        its PFN, order and reclaimable bit."""
        if self.freed:
            return self.pfn, self.order, self.freed, self.reclaimable
        return (self.pfn, self.order, self.freed, self.reclaimable,
                self.migratetype, self.source, self.birth)


class RefRegistry:
    def __init__(self) -> None:
        self.by_pfn: dict[int, Page] = {}
        self.slots: list[Page] = []
        self.lru: OrderedDict[Page, None] = OrderedDict()

    def _file(self, page: Page) -> Page:
        if page.pfn in self.by_pfn:
            raise KeyError(page.pfn)
        self.by_pfn[page.pfn] = page
        if page.reclaimable:
            self.lru[page] = None
        return page

    def register(self, pfn, order, mt, source, birth, reclaimable) -> Page:
        self.slots.append(self._file(Page(
            pfn, order, mt, source, birth, reclaimable, len(self.slots))))
        return self.slots[-1]

    def register_batch(self, pfns, mt, source, birth, reclaimable) -> None:
        if any(pfn in self.by_pfn for pfn in pfns):
            raise KeyError(pfns)
        for pfn in pfns:
            self.register(pfn, 0, mt, source, birth, reclaimable)

    def relocate(self, old: int, new: int) -> Page:
        page = self.by_pfn.pop(old)
        page.pfn = new
        self.by_pfn[new] = page
        return page

    def free(self, pfn: int) -> Page:
        page = self.by_pfn.pop(pfn)
        self.lru.pop(page, None)
        page.freed = True
        return page

    def reclaim(self, target: int) -> list[int]:
        """The PFNs freed, oldest page first, until *target* frames."""
        freed, victims = 0, []
        while freed < target and self.lru:
            page = next(iter(self.lru))
            victims.append(page.pfn)
            freed += 1 << page.order
            self.free(page.pfn)
        return victims
