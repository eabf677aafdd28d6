"""The dict+deque free list the intrusive :class:`repro.mm.freelist.FreeList`
replaced, kept as its differential-testing reference (``test_freelist.py``).

Two fixes over the historical version: queue entries are
generation-stamped, so a member discarded and later re-added
consistently takes its queue position from the re-add (the lazy path used
to revive the old position, the compacted path the new one), and
``_compact`` rebuilds the queue to exactly one entry per live member, so
``stale_entries()`` is zero after every rebuild (the historical
first+last-occurrence rebuild could leave it nonzero).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator

import numpy as np

from repro.errors import FreelistDivergenceError
from repro.mm.freelist import _COMPACT_MIN, _EMPTY_PFNS


class LegacyFreeList:
    """The previous dict+deque representation, kept as the differential
    reference for the intrusive :class:`FreeList` (and still fully
    functional standalone).

    Membership is a pfn -> generation-stamp map; address order comes
    from two lazy-deletion heaps and temporal order from a lazy-deletion
    deque of ``(stamp, pfn)`` entries.  A queue entry is live only while
    its stamp matches the member's current stamp, so a member discarded
    and later re-added takes its temporal position from the re-add —
    matching the intrusive list bit-for-bit on every pop mode.
    """

    __slots__ = ("_members", "_min_heap", "_max_heap", "_queue",
                 "_removals", "_stamp")

    def __init__(self) -> None:
        self._members: dict[int, int] = {}
        self._min_heap: list[int] = []
        self._max_heap: list[int] = []
        self._queue: deque[tuple[int, int]] = deque()
        #: Removals since the last compaction — an upper bound on the
        #: stale entries in any one structure.
        self._removals = 0
        self._stamp = 0

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._members

    def __iter__(self) -> Iterator[int]:
        """Iterate members in insertion order (stamp order)."""
        members = self._members
        return iter(sorted(members, key=members.__getitem__))

    def add(self, pfn: int) -> None:
        """Insert a free block head; no-op if already present."""
        if pfn in self._members:
            return
        stamp = self._stamp = self._stamp + 1
        self._members[pfn] = stamp
        heapq.heappush(self._min_heap, pfn)
        heapq.heappush(self._max_heap, -pfn)
        self._queue.append((stamp, pfn))

    def extend(self, pfns) -> None:
        """Bulk-append (scalar loop — parity surface for the fuzzer)."""
        for pfn in np.asarray(pfns, dtype=np.int64).tolist():
            self.add(pfn)

    def discard(self, pfn: int) -> bool:
        """Remove *pfn* if present; returns whether it was present."""
        if pfn in self._members:
            del self._members[pfn]
            self._note_removal()
            return True
        return False

    def _note_removal(self) -> None:
        r = self._removals = self._removals + 1
        if r > _COMPACT_MIN and r > len(self._members):
            self._compact()

    def _compact(self) -> None:
        """Rebuild all three structures from the live set.

        A sorted list is a valid binary min-heap, so the heaps pop in
        exactly the same order afterwards.  The queue is rebuilt to
        exactly one (current-stamp) entry per live member in stamp
        order, so LIFO pops are unchanged and ``stale_entries()``
        is zero after every rebuild.
        """
        self._removals = 0
        members = self._members
        self._min_heap = sorted(members)
        self._max_heap = [-p for p in reversed(self._min_heap)]
        if len(self._queue) > len(members):
            self._queue = deque(
                sorted((stamp, pfn) for pfn, stamp in members.items()))

    def pop_lowest(self) -> int:
        """Remove and return the lowest PFN (raises KeyError if empty)."""
        members = self._members
        while self._min_heap:
            pfn = heapq.heappop(self._min_heap)
            if pfn in members:
                del members[pfn]
                self._note_removal()
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_highest(self) -> int:
        """Remove and return the highest PFN (raises KeyError if empty)."""
        members = self._members
        while self._max_heap:
            pfn = -heapq.heappop(self._max_heap)
            if pfn in members:
                del members[pfn]
                self._note_removal()
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_lifo(self) -> int:
        """Remove and return the most recently added PFN; raises
        KeyError if empty."""
        members = self._members
        while self._queue:
            stamp, pfn = self._queue.pop()
            if members.get(pfn) == stamp:
                del members[pfn]
                self._note_removal()
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_many_lifo(self, k: int) -> np.ndarray:
        """Parity surface for the fuzzer (scalar loop)."""
        out = []
        while k > 0 and self._members:
            out.append(self.pop_lifo())
            k -= 1
        return np.asarray(out, dtype=np.int64) if out else _EMPTY_PFNS

    def stale_entries(self) -> int:
        """Total stale (lazy-deleted) entries across the internal
        structures — exposed for the churn tests, the sanitizer's
        post-rebuild invariant, and diagnostics."""
        live = len(self._members)
        return (len(self._min_heap) - live) + \
            (len(self._max_heap) - live) + \
            max(0, len(self._queue) - live)

    def check_invariants(self) -> None:
        """Structure-soundness sweep (sanitizer hook): every member must
        be reachable from the queue and heaps, and staleness must
        respect the compaction bound — in particular, a freshly rebuilt
        list reports ``stale_entries() == 0``."""
        members = self._members
        live = len(members)
        queued = {pfn for stamp, pfn in self._queue
                  if members.get(pfn) == stamp}
        if queued != set(members):
            raise FreelistDivergenceError(
                f"{live - len(queued)} members missing a live queue entry")
        heap_set = set(self._min_heap)
        if not set(members) <= heap_set:
            raise FreelistDivergenceError("member missing from min-heap")
        bound = 3 * (max(_COMPACT_MIN, live) + 1) + live
        if self.stale_entries() > bound:
            raise FreelistDivergenceError(
                f"staleness {self.stale_entries()} exceeds the "
                f"compaction bound {bound} (live {live})")
