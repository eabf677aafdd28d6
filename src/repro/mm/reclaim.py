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
    BULK,
    NO_HANDLE,
    RECLAIMABLE,
    HandleBatch,
    HandleRegistry,
    PageHandle,
)
from .page import PageFlag
from .sections import int64, rows_of

_PINNED = 1 << PageFlag.PINNED

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
    end.  Handles freed by their owners are lazily skipped.  An entry is
    a handle's registry slot, or a bulk allocation's
    :class:`HandleBatch` (keyed by identity), sitting where its pages'
    own entries would have — consumed oldest page first.  Every page of
    a batch is order 0 (:meth:`HandleRegistry.register_batch`).
    """

    def __init__(self, stat, registry: HandleRegistry) -> None:
        # Insertion order is the recency order.
        self._lru: OrderedDict[int | HandleBatch, None] = OrderedDict()
        self._stat = stat
        #: Pages the batch entries stand for, less the one entry each
        #: occupies in ``_lru``: ``len(_lru) + _surplus`` counts pages.
        self._surplus = 0
        #: Every batch slot below this one has been reclaimed or skipped
        #: (batches arrive, and are consumed, in slot order).
        self._cursor = 0
        self._registry = registry

    def __len__(self) -> int:
        return len(self._lru) + self._surplus

    def snapshot(self) -> dict:
        """The LRU in recency order: its slots, and each batch as its
        slot range and its position in the order."""
        lru = self._lru
        return {
            "slots": int64([e for e in lru if type(e) is int]),
            "state": {"batches": [[i, e.start, e.stop]
                                  for i, e in enumerate(lru)
                                  if type(e) is not int],
                      "surplus": self._surplus, "cursor": self._cursor}}

    def restore(self, state) -> None:
        """Load a :meth:`snapshot` (building no handle)."""
        registry = self._registry
        entries = rows_of(state["slots"], len(registry._slots))
        meta = state["state"]
        for at, start, stop in meta["batches"]:
            entries.insert(at, HandleBatch(registry, start, stop))
        self._lru = OrderedDict.fromkeys(entries)
        self._surplus, self._cursor = meta["surplus"], meta["cursor"]

    def register(self, handle: PageHandle) -> None:
        """Add a reclaimable allocation (most-recently-used position)."""
        self._lru[handle.slot] = None

    def register_batch(self, batch: HandleBatch) -> None:
        """Add every page of *batch*, in order, without building any."""
        self._lru[batch] = None
        self._surplus += len(batch) - 1

    def forget(self, handle: PageHandle) -> None:
        """Remove without freeing (owner freed it explicitly)."""
        slot = handle.slot
        if self._lru.pop(slot, 0) is None:
            return
        # Not an entry of its own: a reclaimable batch page is still on
        # the LRU while the cursor has not passed its slot, which then
        # stays behind (``reclaim`` skips it) but no longer counts.
        if (slot >= self._cursor and self._registry._info[slot]
                & (BULK | RECLAIMABLE) == BULK | RECLAIMABLE):
            self._surplus -= 1

    def reclaim(
        self,
        free_fn: Callable[[PageHandle], None],
        free_run: Callable[[list[int]], None],
        target_frames: int,
    ) -> int:
        """Free oldest entries until *target_frames* frames are recovered
        (or the LRU empties).  Returns frames actually freed.

        A slot entry's handle goes to *free_fn*.  A batch is walked slot by
        slot, and its order-0 pages are freed in runs: each page leaves
        the registry here — its frame's column entry cleared, its slot
        marked ``~pfn`` and, if somebody named it, its handle marked
        freed and dropped — and each maximal run of their current PFNs
        goes to *free_run*, in slot order.  Only a pinned page (its
        frame's flag says so, named or not) ends a run: its handle goes
        to *free_fn* after the run.
        """
        freed = 0
        lru, resolve = self._lru, self._registry.resolve
        while freed < target_frames and lru:
            entry = next(iter(lru))
            if type(entry) is int:
                del lru[entry]
                handle = resolve(entry)
                if not handle.freed:
                    freed += handle.nframes
                    free_fn(handle)
                continue
            slot, stop = max(self._cursor, entry.start), entry.stop
            registry = entry.registry
            slots, built = registry._slots, registry._built
            column, flags = registry._col_mv, registry.mem.flags_mv
            before = freed
            run: list[int] = []
            while slot < stop and freed < target_frames:
                pfn = slots[slot]
                slot += 1
                if pfn < 0:     # freed: forget() stopped counting it
                    continue
                if not flags[pfn] & _PINNED:
                    # Named or not, still order 0 (maybe moved since).
                    column[pfn] = NO_HANDLE
                    slots[slot - 1] = ~pfn
                    handle = built[slot - 1]
                    if handle is not None:
                        handle.freed = True
                        built[slot - 1] = None
                    run.append(pfn)
                    freed += 1
                else:
                    if run:
                        free_run(run)
                        run = []
                    self._cursor = slot
                    freed += 1
                    free_fn(registry.resolve(slot - 1))
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
