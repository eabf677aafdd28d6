"""Runtime frame-state sanitizer: the CONFIG_DEBUG_VM analogue.

Linux guards its page allocator with ``CONFIG_DEBUG_VM``: extra
bookkeeping and checks that are compiled out of production kernels but
catch double frees, freelist corruption, and migratetype accounting
drift in development builds.  This module is the simulator's version.

Two layers:

* :class:`FrameSanitizer` — an optional per-frame state machine attached
  to a :class:`~repro.mm.physmem.PhysicalMemory` (``mem.sanitizer``).
  While attached, every ``mark_allocated``/``mark_free`` records a
  bounded per-PFN event history, so a double free or double allocation
  raises a typed :class:`~repro.errors.SanitizerError` carrying the
  offending PFN *and* the recent alloc/free trail that led there.
* Module-level verifiers — :func:`verify_allocator` and
  :func:`verify_kernel` sweep buddy bookkeeping against the ground-truth
  frame arrays and raise :class:`~repro.errors.FreelistDivergenceError`
  or :class:`~repro.errors.MigratetypeDriftError` on any divergence.
  ``BuddyAllocator.check_consistency`` / ``LinuxKernel.check_consistency``
  delegate here, so the checks fire identically under ``python -O``.

Enablement: set ``REPRO_DEBUG_VM=1`` in the environment, or pass
``KernelConfig(debug_vm=True)``; both attach a sanitizer to the kernel's
memory at construction time.  The hooks cost one attribute load and a
branch when detached — cheap enough that the typed *checks* themselves
(double alloc / double free) are always on; the sanitizer only adds the
history trail and the deep sweeps.

This module deliberately imports nothing from :mod:`repro.mm` — it works
against the allocator/memory duck-type — so the ``mm`` package can call
into it lazily without an import cycle.
"""

from __future__ import annotations

import os
from collections import deque

from ..errors import (
    FreelistDivergenceError,
    MigratetypeDriftError,
    SanitizerError,
)

#: Environment flag that enables the sanitizer for every kernel built
#: while it is set (unless the kernel config explicitly overrides).
ENV_FLAG = "REPRO_DEBUG_VM"

#: Values of :data:`ENV_FLAG` that mean "off".
_FALSEY = ("", "0", "off", "no", "false")


def debug_vm_enabled() -> bool:
    """Whether :data:`ENV_FLAG` requests the sanitizer."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in _FALSEY


class FrameSanitizer:
    """Per-frame lifecycle recorder behind the typed invariant checks.

    Attach with :meth:`attach` (sets ``mem.sanitizer``); the memory's
    ``mark_allocated``/``mark_free`` then call :meth:`note_alloc` /
    :meth:`note_free`, building a bounded history per PFN.  The history
    is what turns a bare "freeing non-head pfn" failure into "double
    free: this PFN was allocated at tick 10 and already freed at tick
    42".

    Args:
        history_len: events retained per frame (oldest dropped first).
    """

    __slots__ = ("history_len", "_hist", "events")

    def __init__(self, history_len: int = 8) -> None:
        self.history_len = history_len
        self._hist: dict[int, deque] = {}
        #: Total events recorded (diagnostic; proves the hooks ran).
        self.events = 0

    def attach(self, mem) -> "FrameSanitizer":
        """Install on *mem* (a :class:`PhysicalMemory`); returns self."""
        mem.sanitizer = self
        return self

    # -- hooks (called by PhysicalMemory) --------------------------------

    def note_alloc(self, pfn: int, order: int, tick: int) -> None:
        self._record(pfn, "alloc", order, tick)

    def note_free(self, pfn: int, order: int, tick: int = -1) -> None:
        self._record(pfn, "free", order, tick)

    def _record(self, pfn: int, action: str, order: int, tick: int) -> None:
        hist = self._hist.get(pfn)
        if hist is None:
            hist = self._hist[pfn] = deque(maxlen=self.history_len)
        hist.append((action, order, tick))
        self.events += 1

    # -- queries ---------------------------------------------------------

    def history(self, pfn: int) -> tuple:
        """Recent ``(action, order, tick)`` events for *pfn*, oldest
        first; empty tuple when the frame was never touched."""
        hist = self._hist.get(pfn)
        return tuple(hist) if hist else ()

    def last_action(self, pfn: int) -> str | None:
        hist = self._hist.get(pfn)
        return hist[-1][0] if hist else None

    # -- deep sweeps -----------------------------------------------------

    def verify(self, kernel) -> None:
        """Full consistency sweep over *kernel* (see
        :func:`verify_kernel`)."""
        verify_kernel(kernel)


# ---------------------------------------------------------------------------
# Ground-truth verification sweeps
# ---------------------------------------------------------------------------


#: Heap rebuilds wait for this many removals (``mm.buddy._COMPACT_MIN``,
#: restated: this module imports nothing from ``repro.mm``).
_COMPACT_MIN = 64


def verify_allocator(alloc) -> None:
    """Audit one buddy allocator's bookkeeping against the frame arrays.

    Reads the allocator's free-list table (list ``order * n_types + mt``:
    ``_head``/``_tail``/``_count``/heaps, linked under ``free_list_id ==
    _lid0 + list``) and the memory's link columns.  Checks, in order:

    * occupancy bitmaps — bit *o* of ``_occ[mt]`` is set exactly when
      list (*o*, *mt*) is non-empty;
    * chain closure — the ``free_next`` walk from each head visits
      ``count`` frames, each tagged with the list's id and agreeing
      with ``free_prev``, and ends at the tail;
    * per-entry agreement — every listed head must be marked free at the
      listed order in ``mem.free_order`` and not allocated, and
      ``mem.free_mt`` must match the list it sits on;
    * heap staleness — an address-mode list's heaps hold at most the
      rebuild bound of stale entries;
    * ``list_id`` tags — as many frames carry each list's id as the list
      counts members;
    * ``nr_free`` and per-type drift — the cached total must equal the
      frames on the lists, and the per-type totals a recount from the
      arrays.

    Raises:
        FreelistDivergenceError: structural list/array divergence.
        MigratetypeDriftError: per-type accounting drift.
    """
    import numpy as np

    mem = alloc.mem
    label = alloc.label
    nmt = len(alloc._occ)
    nxt_mv, prv_mv = mem.free_next_mv, mem.free_prev_mv
    tags = mem.free_list_id_mv
    free_order, free_mt = mem.free_order_mv, mem.free_mt_mv
    counted = 0
    listed_by_mt: dict[int, int] = {}
    for li, count in enumerate(alloc._count):
        order, imt = divmod(li, nmt)
        where = f"order={order} mt={imt}"
        if bool(count) != bool(alloc._occ[imt] >> order & 1):
            raise FreelistDivergenceError(
                f"{label}: occupancy bit {'clear' if count else 'set'} for "
                f"{'non-empty' if count else 'empty'} list {where}")
        ident = alloc._lid0 + li
        seen, prev, pfn = 0, -1, alloc._head[li]
        while pfn >= 0:
            seen += 1
            if seen > count:
                raise FreelistDivergenceError(
                    f"{label}: forward walk of list {where} exceeds its "
                    f"count {count} (cycle?)", pfn=pfn)
            if tags[pfn] != ident:
                raise FreelistDivergenceError(
                    f"{label}: frame on list {where} tagged list "
                    f"{tags[pfn]}, expected {ident}", pfn=pfn)
            if prv_mv[pfn] != prev:
                raise FreelistDivergenceError(
                    f"{label}: prev link {prv_mv[pfn]} != expected {prev}",
                    pfn=pfn)
            if free_order[pfn] != order:
                raise FreelistDivergenceError(
                    f"{label}: listed at order {order} but "
                    f"free_order[{pfn}] = {free_order[pfn]}", pfn=pfn)
            if mem.is_allocated(pfn):
                raise FreelistDivergenceError(
                    f"{label}: allocated frame on free list {where}",
                    pfn=pfn)
            if free_mt[pfn] != imt:
                raise MigratetypeDriftError(
                    f"{label}: on mt-{imt} list but "
                    f"free_mt[{pfn}] = {free_mt[pfn]}", pfn=pfn)
            prev, pfn = pfn, nxt_mv[pfn]
        if seen != count:
            raise FreelistDivergenceError(
                f"{label}: walk of list {where} found {seen} members, "
                f"count says {count}")
        if prev != alloc._tail[li]:
            raise FreelistDivergenceError(
                f"{label}: walk of list {where} ended at {prev}, tail says "
                f"{alloc._tail[li]}")
        heap = alloc._min_heap[li]
        if heap is not None:
            stale = (len(heap) + len(alloc._max_heap[li])) - 2 * count
            if stale > 2 * max(_COMPACT_MIN, count) + 2:
                raise FreelistDivergenceError(
                    f"{label}: heap staleness {stale} of list {where} "
                    f"exceeds the rebuild bound (live {count})")
        if count:
            counted += count << order
            listed_by_mt[imt] = listed_by_mt.get(imt, 0) + (count << order)
    lid0, nlists = alloc._lid0, len(alloc._count)
    tagged = np.bincount(mem.free_list_id, minlength=lid0 + nlists)
    for li, count in enumerate(alloc._count):
        if tagged[lid0 + li] != count:
            raise FreelistDivergenceError(
                f"{label}: {tagged[lid0 + li]} frames tagged for list "
                f"order={li // nmt} mt={li % nmt}, count says {count}")
    if counted != alloc.nr_free:
        raise FreelistDivergenceError(
            f"{label}: nr_free {alloc.nr_free} != {counted} frames "
            f"on the lists")
    # Aggregate per-type drift: recount free frames per migratetype from
    # the arrays, restricted to this allocator's range.
    start, end = alloc.start_pfn, alloc.end_pfn
    orders = np.asarray(mem.free_order[start:end])
    mts = np.asarray(mem.free_mt[start:end])
    heads = orders >= 0
    array_by_mt: dict[int, int] = {}
    for imt in np.unique(mts[heads]):
        sel = heads & (mts == imt)
        array_by_mt[int(imt)] = int((1 << orders[sel].astype(np.int64)).sum())
    if array_by_mt != listed_by_mt:
        raise MigratetypeDriftError(
            f"{alloc.label}: per-migratetype free frames drifted — "
            f"lists say {sorted(listed_by_mt.items())}, frame arrays say "
            f"{sorted(array_by_mt.items())}")


def verify_kernel(kernel) -> None:
    """Audit a whole kernel: every allocator, the global free count
    (including frames parked on per-CPU lists), and the handle registry
    against the frame arrays — every entry files a live allocation
    (``HandleRegistry.check_invariants``), and every allocation head
    but the offlined placeholders, which have no owner, has an entry.

    Raises:
        FreelistDivergenceError: any allocator diverged, or the total
            free frames in memory disagree with the lists.
        MigratetypeDriftError: per-type accounting drift.
        SanitizerError: the handle registry and the frame arrays
            disagree about what is allocated.
    """
    linked = 0
    for alloc in kernel.allocators():
        verify_allocator(alloc)
        linked += sum(alloc._count)
    mem = kernel.mem
    tagged = int((mem.free_list_id != 0).sum())
    if tagged != linked:
        raise FreelistDivergenceError(
            f"{tagged} frames tagged as linked vs {linked} on the "
            f"allocators' free lists")
    free = mem.free_frames()
    on_lists = kernel.free_frames()
    if free != on_lists:
        raise FreelistDivergenceError(
            f"{free} frames free in memory vs {on_lists} on free lists")
    kernel.handles.check_invariants()
    heads = int((mem.alloc_order >= 0).sum()) - kernel.offlined_frames()
    if heads != len(kernel.handles):
        raise SanitizerError(
            f"{heads} allocation heads in memory vs "
            f"{len(kernel.handles)} handle registry entries")
