"""Watermark-based memory reclaim.

A trimmed-down model of kswapd/direct reclaim: reclaimable pages (page
cache, reclaimable slab) sit on an LRU; when free memory falls below a
watermark the kernel frees from the LRU tail.  Reclaim matters here for two
reasons: it is the periodic activity that Contiguitas piggybacks on to
trigger region resizing (paper §3.2), and reclaim *stalls* are the signal
PSI turns into the per-region pressure numbers Algorithm 1 consumes.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from ..telemetry import tracepoint
from . import vmstat as ev
from .handle import (
    NO_HANDLE,
    HandleBatch,
    HandleRegistry,
    HandleTable,
    PageHandle,
)
from .sections import int64, rows_of

#: Watermarks as fractions of the managed range, Linux-style.
WMARK_MIN_RATIO = 0.005
WMARK_LOW_RATIO = 0.0125
WMARK_HIGH_RATIO = 0.02

_tp_reclaim = tracepoint("mm.reclaim.run")


@dataclass(frozen=True)
class Watermarks:
    """Free-memory thresholds for one allocator, in frames.

    ``min``: direct-reclaim trigger (allocations stall below this).
    ``low``: kswapd wake-up / Contiguitas resize check.
    ``high``: reclaim stops when free memory recovers to this.
    """

    min: int
    low: int
    high: int

    @classmethod
    def for_frames(cls, nr_frames: int) -> "Watermarks":
        """Derive watermarks from a managed-range size, Linux-style."""
        return cls(
            min=max(1, int(nr_frames * WMARK_MIN_RATIO)),
            low=max(2, int(nr_frames * WMARK_LOW_RATIO)),
            high=max(3, int(nr_frames * WMARK_HIGH_RATIO)),
        )


class ReclaimLRU:
    """LRU of reclaimable page handles (page cache and friends).

    Insertion order approximates recency; ``reclaim`` frees from the oldest
    end.  Handles freed by their owners are lazily skipped.  A bulk
    allocation is one entry — its :class:`HandleBatch`, sitting where its
    pages' own entries would have — consumed oldest page first.  Every
    page of a batch is order 0 (:meth:`HandleRegistry.register_batch`).
    """

    def __init__(self, stat) -> None:
        # Keyed by the handle itself (identity hash): insertion order is
        # the recency order, and no address-derived int exists to leak
        # into output.
        self._lru: OrderedDict[PageHandle | HandleBatch, None] = OrderedDict()
        self._stat = stat
        #: Pages the batch entries stand for, less the one entry each
        #: occupies in ``_lru``: ``len(_lru) + _surplus`` counts pages.
        self._surplus = 0
        #: Every batch slot below this one has been reclaimed or skipped
        #: (batches arrive, and are consumed, in slot order).
        self._cursor = 0
        self._registry: HandleRegistry | None = None

    def __len__(self) -> int:
        return len(self._lru) + self._surplus

    def snapshot(self, table: HandleTable) -> dict:
        """The LRU in recency order: its handles as table rows, each
        batch as its slot range and its position in the order."""
        lru = self._lru
        return {
            "rows": int64(table.rows(
                e for e in lru if type(e) is not HandleBatch)),
            "state": {"batches": [[i, e.start, e.stop]
                                  for i, e in enumerate(lru)
                                  if type(e) is HandleBatch],
                      "surplus": self._surplus, "cursor": self._cursor,
                      "registered": self._registry is not None}}

    def restore(self, state, handles: list[PageHandle],
                registry: HandleRegistry) -> None:
        """Load a :meth:`snapshot`; batches resolve through *registry*."""
        entries = [handles[row] for row in rows_of(state["rows"],
                                                   len(handles))]
        meta = state["state"]
        for at, start, stop in meta["batches"]:
            entries.insert(at, HandleBatch(registry, start, stop))
        self._lru = OrderedDict.fromkeys(entries)
        self._surplus, self._cursor = meta["surplus"], meta["cursor"]
        self._registry = registry if meta["registered"] else None

    def register(self, handle: PageHandle) -> None:
        """Add a reclaimable allocation (most-recently-used position)."""
        self._lru[handle] = None

    def register_batch(self, batch: HandleBatch) -> None:
        """Add every page of *batch*, in order, without building any."""
        self._lru[batch] = None
        self._surplus += len(batch) - 1
        self._registry = batch.registry

    def forget(self, handle: PageHandle) -> None:
        """Remove without freeing (owner freed it explicitly)."""
        if self._lru.pop(handle, 0) is None or self._registry is None:
            return
        # Not an entry of its own: a batch page is still on the LRU
        # while the cursor has not passed its slot, which then stays
        # behind (``reclaim`` skips it) but no longer counts.
        if (handle.reclaimable
                and self._registry.slot_of(handle) >= self._cursor):
            self._surplus -= 1

    def reclaim(
        self,
        free_fn: Callable[[PageHandle], None],
        free_run: Callable[[list[int]], None],
        target_frames: int,
    ) -> int:
        """Free oldest entries until *target_frames* frames are recovered
        (or the LRU empties).  Returns frames actually freed.

        A handle entry goes to *free_fn*.  A batch is walked slot by
        slot, and its order-0 pages are freed in runs: each page leaves
        the registry here — its frame's column entry cleared, its slot
        marked ``~pfn`` and, if somebody named it, its handle marked
        freed — and each maximal run of their current PFNs goes to
        *free_run*, in slot order.  Only a pinned page ends a run: it
        goes to *free_fn* after the run.
        """
        freed = 0
        lru = self._lru
        while freed < target_frames and lru:
            entry = next(iter(lru))
            if type(entry) is not HandleBatch:
                del lru[entry]
                if not entry.freed:
                    freed += entry.nframes
                    free_fn(entry)
                continue
            slot, stop = max(self._cursor, entry.start), entry.stop
            registry = entry.registry
            slots, built = registry._slots, registry._built
            column = registry._col_mv
            before = freed
            run: list[int] = []
            while slot < stop and freed < target_frames:
                pfn = slots[slot]
                slot += 1
                if pfn < 0:     # freed: forget() stopped counting it
                    continue
                handle = built.get(slot - 1)
                if handle is None or not handle.pinned:
                    # Named or not, still order 0 (maybe moved since).
                    column[pfn] = NO_HANDLE
                    slots[slot - 1] = ~pfn
                    if handle is not None:
                        handle.freed = True
                    run.append(pfn)
                    freed += 1
                else:
                    if run:
                        free_run(run)
                        run = []
                    self._cursor = slot
                    freed += 1
                    free_fn(handle)
            self._cursor = slot
            if run:
                free_run(run)
            # The pages consumed leave the count; a used-up batch leaves
            # ``_lru``, and its entry's one page with it.
            self._surplus -= freed - before - (slot >= stop)
            if slot >= stop:
                del lru[entry]
        if freed:
            self._stat.inc(ev.RECLAIM_RUNS)
            self._stat.inc(ev.PAGES_RECLAIMED, freed)
            if _tp_reclaim.enabled:
                _tp_reclaim.emit(freed=freed, target=target_frames,
                                 lru_remaining=len(self))
        return freed
