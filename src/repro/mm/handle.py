"""Stable references to allocations that survive page migration.

Workloads and kernel subsystems hold :class:`PageHandle` objects rather than
raw PFNs: compaction, Contiguitas pin-migration, and Contiguitas-HW all
relocate physical pages underneath their owners, and the
:class:`HandleRegistry` is the simulator's analogue of updating the page
tables / reverse mappings so owners keep working after a move.
"""

from __future__ import annotations

from ..errors import DoubleAllocError
from .page import AllocSource, MigrateType


class PageHandle:
    """A live allocation as seen by its owner.

    Attributes:
        pfn: current head frame number (updated on migration).
        order: buddy order of the allocation.
        migratetype: free-list type it was allocated with.
        source: owning subsystem.
        pinned: whether currently pinned.
        birth: allocation tick.
        freed: True once released (use-after-free guard in tests).
    """

    __slots__ = ("pfn", "order", "migratetype", "source", "pinned",
                 "birth", "freed", "reclaimable")

    def __init__(
        self,
        pfn: int,
        order: int,
        migratetype: MigrateType,
        source: AllocSource,
        birth: int,
        pinned: bool = False,
        reclaimable: bool = False,
    ) -> None:
        self.pfn = pfn
        self.order = order
        self.migratetype = migratetype
        self.source = source
        self.pinned = pinned
        self.birth = birth
        self.freed = False
        #: Page-cache-like: the kernel may drop it under pressure.
        self.reclaimable = reclaimable

    @property
    def nframes(self) -> int:
        return 1 << self.order

    def __reduce__(self):
        # The persisted record is this tuple, not the slots: a slotted
        # class without a reduce goes through copyreg's slot-state path
        # (a fresh dict per handle on save, a setattr per slot on load),
        # which was 70 of an 80 ms checkpoint encode.  Pickle's memo
        # still shares one object between every structure holding it.
        return _restore_handle, (
            self.pfn, self.order, self.migratetype, self.source, self.birth,
            self.pinned | self.freed << 1 | self.reclaimable << 2)

    def __repr__(self) -> str:
        state = "freed" if self.freed else ("pinned" if self.pinned else "live")
        return (f"PageHandle(pfn={self.pfn}, order={self.order}, "
                f"{self.source.name}, {state})")


def _restore_handle(pfn, order, migratetype, source, birth, bits):
    """Rebuild a handle from the record :meth:`PageHandle.__reduce__`
    wrote: ``bits`` is ``pinned | freed << 1 | reclaimable << 2``."""
    handle = PageHandle(pfn, order, migratetype, source, birth,
                        bits & 1 == 1, bits & 4 == 4)
    handle.freed = bits & 2 == 2
    return handle


class HandleRegistry:
    """Maps head PFN → :class:`PageHandle` for every live allocation."""

    def __init__(self) -> None:
        self._by_pfn: dict[int, PageHandle] = {}

    def __len__(self) -> int:
        return len(self._by_pfn)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._by_pfn

    def register(self, handle: PageHandle) -> PageHandle:
        if handle.pfn in self._by_pfn:
            raise DoubleAllocError("duplicate head pfn in handle registry",
                                   pfn=handle.pfn)
        self._by_pfn[handle.pfn] = handle
        return handle

    def get(self, pfn: int) -> PageHandle:
        return self._by_pfn[pfn]

    def on_free(self, handle: PageHandle) -> None:
        """Drop a handle when its allocation is released."""
        del self._by_pfn[handle.pfn]
        handle.freed = True

    def relocate(self, old_pfn: int, new_pfn: int) -> PageHandle:
        """Repoint the handle at *old_pfn* after a migration to *new_pfn*
        (the simulator's PTE/rmap update)."""
        handle = self._by_pfn.pop(old_pfn)
        handle.pfn = new_pfn
        self._by_pfn[new_pfn] = handle
        return handle

    def live_handles(self) -> list[PageHandle]:
        """All live handles (unordered)."""
        return list(self._by_pfn.values())
