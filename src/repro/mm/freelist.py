"""Free lists: intrusive array-backed doubly-linked lists over packed
per-frame ``next``/``prev`` arrays, with ordered extraction.

The buddy allocator keeps one :class:`FreeList` per (order, migrate type)
pair.  Linux threads its free lists through ``struct page`` itself — the
list nodes *are* the frames — and :class:`FreelistStore` mirrors that
layout: one pair of packed int64 ``next``/``prev`` arrays indexed by PFN,
shared by every list of one :class:`~repro.mm.physmem.PhysicalMemory`,
plus a ``list_id`` array recording which list currently links each frame
(0 = none).  Membership, append, unlink, and the LIFO pop are all
O(1) array reads/writes; bulk insert and bulk pop are vectorised numpy
fancy-index writes, which is what lifts allocator churn from ~250k to
multi-million ops/s.

Extraction modes (why three pops exist):

* ``pop_lifo`` is stock Linux: a freed block is pushed at the list head
  and the next allocation pops it.  That temporal order is what scatters
  allocations across the address space on a busy machine (the next
  unmovable allocation lands wherever something was just freed), so the
  Linux-baseline fragmentation behaviour depends on it.
* ``pop_lowest`` / ``pop_highest`` give address order, which Contiguitas's
  placement policy (§3.2) needs — "the free block farthest from the
  region border" means ordered extraction from either end.

Address ordering is *two-mode*.  A list serving only temporal pops (every
stock-Linux list) carries zero heap bookkeeping — adds and unlinks touch
only the packed arrays.  The first address-ordered operation builds a
min/max heap pair by walking the list's own chain and sorting it —
O(len(list)), never a scan of the store's ``list_id`` column, so no
allocation pays for the size of memory.  From then on the list *stays*
in address mode: adds push eagerly and unlinks leave lazily-deleted
stale entries, validated on pop against ``list_id``.  Stale entries are
bounded: once removals since the last rebuild exceed
``max(_COMPACT_MIN, live)`` the heaps are rebuilt from the live set, and
a list that empties clears its heaps in place and keeps them (every
entry is stale by then), so the refill costs pushes, not a rebuild.
Only a bulk ``extend`` past ``_EXTEND_HEAP_MAX`` drops the heaps (a
``None`` heap is also what a pre-existing checkpoint may restore); the
next address pop rebuilds them, again in O(len(list)).

Invariants (checked by :meth:`FreeList.check_invariants`, which the
debug_vm sanitizer calls):

* ``list_id[p] == id``  ⇔  frame *p* is linked on list *id*; a frame is
  on at most one list per store.
* The forward walk from ``head`` visits exactly ``len(list)`` frames,
  each agreeing with the backward links, and ends at ``tail``.
* When heaps exist, every live member has at least one heap entry and
  stale entries stay within the compaction bound.
"""

from __future__ import annotations

import heapq
import weakref
from collections.abc import Iterator

import numpy as np

from ..errors import ConfigurationError, FreelistDivergenceError

#: Rebuilds never trigger below this many removals, so tiny lists are
#: not churned; above it, a >50 % stale fraction triggers a rebuild.
_COMPACT_MIN = 64

#: Bulk inserts into a heap-carrying list push eagerly up to this many
#: entries; larger batches drop the heaps and rebuild on demand.
_EXTEND_HEAP_MAX = 32

_EMPTY_PFNS = np.empty(0, dtype=np.int64)


class FreelistStore:
    """Packed per-frame link arrays shared by every list of one memory.

    Attributes (all indexed by PFN):
        next, prev: int64 successor/predecessor links (-1 = end).
        list_id: id of the list currently linking the frame (0 = none).

    The buddy allocator sizes the store to the frame count at boot
    (:class:`~repro.mm.physmem.PhysicalMemory` hosts one as
    ``.freelists``); a store built with the default capacity grows
    on demand, which keeps standalone lists (tests, tools) ergonomic.
    """

    __slots__ = ("capacity", "next", "prev", "list_id",
                 "next_mv", "prev_mv", "list_mv", "_lists", "_next_id")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"store capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.next = np.full(capacity, -1, dtype=np.int64)
        self.prev = np.full(capacity, -1, dtype=np.int64)
        self.list_id = np.zeros(capacity, dtype=np.int32)
        #: Held weakly: list -> store -> list would be a reference cycle,
        #: leaving every dead kernel's columns to the cyclic collector.
        self._lists: weakref.WeakSet[FreeList] = weakref.WeakSet()
        self._next_id = 0
        self._refresh_views()

    def _refresh_views(self) -> None:
        # Scalar memoryviews over the shared buffers; see PhysicalMemory
        # for why (plain-int reads/writes, no numpy scalar dispatch).
        self.next_mv = memoryview(self.next)
        self.prev_mv = memoryview(self.prev)
        self.list_mv = memoryview(self.list_id)

    def __getstate__(self) -> dict:
        """Slot values minus the memoryview mirrors (not picklable;
        rebuilt from the columns on restore), the live lists by strong
        reference."""
        state = {name: getattr(self, name) for name in self.__slots__
                 if not name.endswith("_mv")}
        state["_lists"] = list(self._lists)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._lists = weakref.WeakSet(self._lists)
        self._refresh_views()
        # The store <-> list references are a pickle cycle: whichever
        # side unpickles second sees the other fully built.  Rebind any
        # list that already has its slots so its view handles point at
        # this store's fresh memoryviews; lists restored later rebind
        # themselves in their own __setstate__.
        for fl in self._lists:
            if hasattr(fl, "_id"):
                fl._rebind()

    def check_invariants(self) -> None:
        """Sweep every live list threaded through this store
        (:meth:`FreeList.check_invariants` per list).  The restore path
        runs this before continuing from a checkpoint; raises
        :class:`~repro.errors.FreelistDivergenceError` on any drift."""
        for fl in self._lists:
            fl.check_invariants()

    def new_list(self) -> "FreeList":
        """A fresh empty list threaded through this store's arrays."""
        return FreeList(self)

    def _register(self, flist: "FreeList") -> int:
        self._next_id += 1
        self._lists.add(flist)
        return self._next_id

    def _grow(self, min_capacity: int) -> None:
        new_cap = self.capacity
        while new_cap < min_capacity:
            new_cap *= 2
        for name, fill in (("next", -1), ("prev", -1)):
            old = getattr(self, name)
            arr = np.full(new_cap, fill, dtype=np.int64)
            arr[: old.size] = old
            setattr(self, name, arr)
        grown = np.zeros(new_cap, dtype=np.int32)
        grown[: self.list_id.size] = self.list_id
        self.list_id = grown
        self.capacity = new_cap
        self._refresh_views()
        for fl in self._lists:
            fl._rebind()


class FreeList:
    """A set of free-block head PFNs supporting ordered extraction.

    Intrusive: the links live in the shared :class:`FreelistStore`, not
    in per-entry Python objects.  Iteration yields insertion order.
    """

    __slots__ = ("_store", "_id", "_next", "_prev", "_lid",
                 "_head", "_tail", "_count", "_min_heap", "_max_heap",
                 "_removals", "__weakref__")

    def __init__(self, store: FreelistStore | None = None) -> None:
        if store is None:
            store = FreelistStore()
        self._store = store
        self._id = store._register(self)
        self._rebind()
        self._head = -1
        self._tail = -1
        self._count = 0
        #: Lazily-built min/max heaps for address order; ``None`` while
        #: the list has only ever served temporal (LIFO) traffic.
        self._min_heap: list[int] | None = None
        self._max_heap: list[int] | None = None
        #: Unlinks since the last heap rebuild — an upper bound on the
        #: stale entries in either heap.
        self._removals = 0

    def _rebind(self) -> None:
        store = self._store
        self._next = store.next_mv
        self._prev = store.prev_mv
        self._lid = store.list_mv

    def __getstate__(self) -> dict:
        """Slot values minus the borrowed memoryview handles
        (``_next``/``_prev``/``_lid``), which :meth:`_rebind` re-derives
        from the store."""
        return {name: getattr(self, name) for name in self.__slots__
                if name not in ("_next", "_prev", "_lid", "__weakref__")}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        # Mirror image of FreelistStore.__setstate__'s cycle handling:
        # rebind now if the store is already rebuilt, otherwise the
        # store rebinds us when its own state lands.
        if hasattr(self._store, "next_mv"):
            self._rebind()

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, pfn: int) -> bool:
        lid = self._lid
        return 0 <= pfn < len(lid) and lid[pfn] == self._id

    def __iter__(self) -> Iterator[int]:
        """Iterate members head-to-tail (insertion order), guarding
        against link corruption (a cycle would otherwise hang)."""
        nxt = self._next
        pfn = self._head
        seen = 0
        while pfn >= 0:
            seen += 1
            if seen > self._count:
                raise FreelistDivergenceError(
                    "freelist walk exceeds member count (link cycle?)",
                    pfn=pfn)
            yield pfn
            pfn = nxt[pfn]

    # -- mutation --------------------------------------------------------

    def add(self, pfn: int) -> None:
        """Link *pfn* at the tail; no-op if already on this list."""
        lid = self._lid
        try:
            cur = lid[pfn]
        except IndexError:
            self._store._grow(pfn + 1)
            lid = self._lid
            cur = 0
        ident = self._id
        if cur == ident:
            return
        if cur:
            raise FreelistDivergenceError(
                f"frame already linked on list {cur}", pfn=pfn)
        lid[pfn] = ident
        tail = self._tail
        self._prev[pfn] = tail
        self._next[pfn] = -1
        if tail >= 0:
            self._next[tail] = pfn
        else:
            self._head = pfn
        self._tail = pfn
        self._count += 1
        if self._min_heap is not None:
            heapq.heappush(self._min_heap, pfn)
            heapq.heappush(self._max_heap, -pfn)

    def extend(self, pfns) -> None:
        """Bulk-append *pfns* (unique, none currently linked) in order.

        The internal links are stitched with two fancy-index writes, so
        the cost is O(1) Python operations plus vectorised array work —
        the bulk-free fast path relies on this.
        """
        arr = np.asarray(pfns, dtype=np.int64)
        if arr.size == 0:
            return
        store = self._store
        m = int(arr.max())
        if m >= store.capacity:
            store._grow(m + 1)
        lid_arr = store.list_id
        if lid_arr[arr].any():
            bad = arr[np.flatnonzero(lid_arr[arr])[0]]
            raise FreelistDivergenceError(
                "bulk insert of an already-linked frame", pfn=int(bad))
        nxt, prv = store.next, store.prev
        nxt[arr[:-1]] = arr[1:]
        prv[arr[1:]] = arr[:-1]
        first = int(arr[0])
        last = int(arr[-1])
        tail = self._tail
        prv[first] = tail
        nxt[last] = -1
        if tail >= 0:
            self._next[tail] = first
        else:
            self._head = first
        self._tail = last
        lid_arr[arr] = self._id
        self._count += int(arr.size)
        if self._min_heap is not None:
            if arr.size <= _EXTEND_HEAP_MAX:
                mn, mx = self._min_heap, self._max_heap
                for p in arr.tolist():
                    heapq.heappush(mn, p)
                    heapq.heappush(mx, -p)
            else:
                self._min_heap = None
                self._max_heap = None
                self._removals = 0

    def discard(self, pfn: int) -> bool:
        """Unlink *pfn* if present; returns whether it was present."""
        lid = self._lid
        try:
            if lid[pfn] != self._id:
                return False
        except IndexError:
            return False
        self._unlink(pfn)
        return True

    def _unlink(self, pfn: int) -> None:
        nxt_mv, prv_mv = self._next, self._prev
        nxt = nxt_mv[pfn]
        prv = prv_mv[pfn]
        if prv >= 0:
            nxt_mv[prv] = nxt
        else:
            self._head = nxt
        if nxt >= 0:
            prv_mv[nxt] = prv
        else:
            self._tail = prv
        self._lid[pfn] = 0
        count = self._count = self._count - 1
        if self._min_heap is not None:
            if not count:
                # Emptied: every entry is stale.  Clear the heaps but
                # keep them, so the refill pushes instead of rebuilding.
                self._min_heap.clear()
                self._max_heap.clear()
                self._removals = 0
                return
            r = self._removals = self._removals + 1
            if r > _COMPACT_MIN and r > count:
                self._compact()

    # -- heap maintenance ------------------------------------------------

    def _build_heaps(self) -> None:
        """Walk the chain and sort it — O(len(self)), whatever the
        store's capacity; a sorted list is a valid binary min-heap."""
        self._min_heap = live = sorted(self)
        self._max_heap = [-p for p in reversed(live)]
        self._removals = 0

    def _compact(self) -> None:
        """Rebuild the address heaps from the live set (no-op in the
        temporal mode).  Pop order is unchanged: the heaps are rebuilt
        sorted, and address pops are value-based."""
        if self._min_heap is None:
            return
        self._build_heaps()

    def stale_entries(self) -> int:
        """Total stale (lazy-deleted) entries across the heaps —
        exposed for the churn tests, the sanitizer bound, and
        diagnostics.  Zero in the temporal mode and immediately after
        a rebuild."""
        if self._min_heap is None:
            return 0
        live = self._count
        return max(0, len(self._min_heap) - live) + \
            max(0, len(self._max_heap) - live)

    # -- pops ------------------------------------------------------------

    def pop_lifo(self) -> int:
        """Remove and return the most recently added PFN (Linux
        list-head behaviour); raises KeyError if empty."""
        pfn = self._tail
        if pfn < 0:
            raise KeyError("pop from empty FreeList")
        self._unlink(pfn)
        return pfn

    def pop_lowest(self) -> int:
        """Remove and return the lowest PFN (raises KeyError if empty)."""
        if self._min_heap is None:
            if not self._count:
                raise KeyError("pop from empty FreeList")
            self._build_heaps()
        heap = self._min_heap
        lid = self._lid
        ident = self._id
        while heap:
            pfn = heapq.heappop(heap)
            if lid[pfn] == ident:
                self._unlink(pfn)
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_highest(self) -> int:
        """Remove and return the highest PFN (raises KeyError if empty)."""
        if self._max_heap is None:
            if not self._count:
                raise KeyError("pop from empty FreeList")
            self._build_heaps()
        heap = self._max_heap
        lid = self._lid
        ident = self._id
        while heap:
            pfn = -heapq.heappop(heap)
            if lid[pfn] == ident:
                self._unlink(pfn)
                return pfn
        raise KeyError("pop from empty FreeList")

    def pop_many_lifo(self, k: int) -> np.ndarray:
        """Unlink and return up to *k* PFNs in LIFO order, as one int64
        array — exactly the sequence ``k`` ``pop_lifo`` calls would
        yield, at a fraction of the cost (one tail-walk, vectorised
        ``list_id`` clear)."""
        count = self._count
        if k > count:
            k = count
        if k <= 0:
            return _EMPTY_PFNS
        prv = self._prev
        out = []
        append = out.append
        pfn = self._tail
        for _ in range(k):
            append(pfn)
            pfn = prv[pfn]
        return self._detach_tail(out, pfn, k)

    def _detach_tail(self, out: list[int], new_tail: int,
                     k: int) -> np.ndarray:
        arr = np.asarray(out, dtype=np.int64)
        self._store.list_id[arr] = 0
        self._tail = new_tail
        if new_tail >= 0:
            self._next[new_tail] = -1
        else:
            self._head = -1
        self._finish_bulk_pop(k)
        return arr

    def _finish_bulk_pop(self, k: int) -> None:
        count = self._count = self._count - k
        if self._min_heap is not None:
            if not count:
                self._min_heap.clear()
                self._max_heap.clear()
                self._removals = 0
                return
            r = self._removals = self._removals + k
            if r > _COMPACT_MIN and r > count:
                self._compact()

    # -- integrity -------------------------------------------------------

    def check_invariants(self) -> None:
        """Full link-integrity sweep (called by the debug_vm sanitizer).

        Walks the chain both ways, cross-checks membership against the
        store's ``list_id`` column, and bounds heap staleness.  Raises
        :class:`~repro.errors.FreelistDivergenceError` on any drift.
        """
        ident = self._id
        lid = self._lid
        nxt_mv, prv_mv = self._next, self._prev
        seen = 0
        prev = -1
        pfn = self._head
        while pfn >= 0:
            seen += 1
            if seen > self._count:
                raise FreelistDivergenceError(
                    "forward walk exceeds member count (cycle?)", pfn=pfn)
            if lid[pfn] != ident:
                raise FreelistDivergenceError(
                    f"linked frame tagged list {lid[pfn]}, "
                    f"expected {ident}", pfn=pfn)
            if prv_mv[pfn] != prev:
                raise FreelistDivergenceError(
                    f"prev link {prv_mv[pfn]} != expected {prev}", pfn=pfn)
            prev = pfn
            pfn = nxt_mv[pfn]
        if seen != self._count:
            raise FreelistDivergenceError(
                f"walk found {seen} members, count says {self._count}")
        if prev != self._tail:
            raise FreelistDivergenceError(
                f"walk ended at {prev}, tail says {self._tail}")
        tagged = int(np.count_nonzero(self._store.list_id == ident))
        if tagged != self._count:
            raise FreelistDivergenceError(
                f"{tagged} frames tagged for this list, "
                f"count says {self._count}")
        if self.stale_entries() > 2 * max(_COMPACT_MIN, self._count) + 2:
            raise FreelistDivergenceError(
                f"heap staleness {self.stale_entries()} exceeds the "
                f"compaction bound (live {self._count})")
