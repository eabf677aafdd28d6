"""HugeTLB: persistent huge-page pools (paper §2.1).

HugeTLB is Linux's explicit huge-page mechanism: an administrator reserves
a number of persistent 2 MiB or 1 GiB pages, which applications then map
deliberately.  Unlike THP, reservations are all-or-nothing and survive
until released — which is why services that depend on them (Web's 1 GiB
pages) need the contiguity to exist at reservation time, and why dynamic
1 GiB reservation "always fails due to the lack of contiguity" on
fragmented stock Linux (paper §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, ContiguityError
from ..units import GIGAPAGE_FRAMES, MAX_ORDER, PAGEBLOCK_FRAMES
from .handle import PageHandle


@dataclass
class HugeTLBStats:
    """Pool accounting, in the spirit of ``/sys/kernel/mm/hugepages``."""

    nr_2m: int = 0
    free_2m: int = 0
    nr_1g: int = 0
    free_1g: int = 0
    reserve_failures_2m: int = 0
    reserve_failures_1g: int = 0


class HugeTLBPool:
    """A persistent pool of explicitly reserved huge pages.

    Args:
        kernel: any kernel facade (Linux or Contiguitas).

    The pool grows via :meth:`reserve_2m` / :meth:`reserve_1g` (the
    ``nr_hugepages`` sysctl path) and hands pages to applications via
    :meth:`get_page` / :meth:`put_page`.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.stats = HugeTLBStats()
        self._free_2m: list[PageHandle] = []
        self._free_1g: list[PageHandle] = []
        # Keyed by the handle itself (identity hash, as ReclaimLRU): an
        # ``id()`` would not survive a checkpoint, and a dict pickles in
        # insertion order where a set would pickle in address order.
        self._in_use: dict[PageHandle, None] = {}

    # ------------------------------------------------------------------
    # Pool sizing (administrator path)
    # ------------------------------------------------------------------

    def reserve_2m(self, count: int = 1) -> int:
        """Grow the 2 MiB pool by up to *count* pages; returns how many
        reservations succeeded (compaction runs as needed, like writing
        ``nr_hugepages``)."""
        from ..errors import OutOfMemoryError
        from .page import MigrateType

        got = 0
        for _ in range(count):
            try:
                handle = self.kernel.alloc_pages(
                    MAX_ORDER, migratetype=MigrateType.MOVABLE)
            except OutOfMemoryError:
                self.stats.reserve_failures_2m += 1
                break
            self._free_2m.append(handle)
            self.stats.nr_2m += 1
            self.stats.free_2m += 1
            got += 1
        return got

    def reserve_1g(self, count: int = 1) -> int:
        """Grow the 1 GiB pool; returns successful reservations.

        Each reservation is an ``alloc_contig_range`` attempt: on a
        fragmented machine with scattered unmovable pages this is exactly
        the operation that never succeeds on stock Linux.
        """
        got = 0
        for _ in range(count):
            try:
                handle = self.kernel.alloc_gigapage()
            except ContiguityError:
                self.stats.reserve_failures_1g += 1
                break
            self._free_1g.append(handle)
            self.stats.nr_1g += 1
            self.stats.free_1g += 1
            got += 1
        return got

    def release_free_pages(self) -> int:
        """Return all unused pool pages to the buddy allocator; returns
        frames released."""
        released = 0
        for handle in self._free_2m:
            self.kernel.free_pages(handle)
            released += handle.nframes
        self.stats.nr_2m -= len(self._free_2m)
        self.stats.free_2m = 0
        self._free_2m.clear()
        for handle in self._free_1g:
            self.kernel.free_pages(handle)
            released += handle.nframes
        self.stats.nr_1g -= len(self._free_1g)
        self.stats.free_1g = 0
        self._free_1g.clear()
        return released

    # ------------------------------------------------------------------
    # Application path
    # ------------------------------------------------------------------

    def get_page(self, size_frames: int) -> PageHandle:
        """Map one huge page from the pool (``mmap(MAP_HUGETLB)``).

        Raises:
            ContiguityError: the pool has no free page of that size.
        """
        pool = self._pool_for(size_frames)
        if not pool:
            raise ContiguityError(
                f"HugeTLB pool empty for {size_frames}-frame pages")
        handle = pool.pop()
        self._in_use[handle] = None
        if size_frames == PAGEBLOCK_FRAMES:
            self.stats.free_2m -= 1
        else:
            self.stats.free_1g -= 1
        return handle

    def put_page(self, handle: PageHandle) -> None:
        """Unmap a huge page; it returns to the pool (persistent!), not
        to the buddy allocator."""
        if handle not in self._in_use:
            raise ConfigurationError("page does not belong to this pool")
        del self._in_use[handle]
        self._pool_for(handle.nframes).append(handle)
        if handle.nframes == PAGEBLOCK_FRAMES:
            self.stats.free_2m += 1
        else:
            self.stats.free_1g += 1

    def _pool_for(self, size_frames: int) -> list[PageHandle]:
        if size_frames == PAGEBLOCK_FRAMES:
            return self._free_2m
        if size_frames == GIGAPAGE_FRAMES:
            return self._free_1g
        raise ConfigurationError(
            f"HugeTLB supports 2MiB/1GiB pages, not {size_frames} frames")
