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


def verify_allocator(alloc) -> None:
    """Audit one buddy allocator's bookkeeping against the frame arrays.

    Checks, in order:

    * occupancy-bitmap soundness — a non-empty ``(order, migratetype)``
      free list must have its ``_occ`` bit set (stale *set* bits over
      empty lists are legal; they heal lazily);
    * intrusive-link integrity — each list's own
      ``check_invariants()`` (next/prev chain closure, membership
      stamps) when the list implementation provides one;
    * per-entry agreement — every listed head must be marked free at the
      listed order in ``mem.free_order`` and not allocated;
    * migratetype agreement — ``mem.free_mt`` must match the list each
      head actually sits on, and the per-type frame totals derived from
      the lists must match a recount from the arrays;
    * ``nr_free`` — the cached total must equal the frames on the lists.

    Raises:
        FreelistDivergenceError: structural list/array divergence.
        MigratetypeDriftError: per-type accounting drift.
    """
    mem = alloc.mem
    counted = 0
    listed_by_mt: dict[int, int] = {}
    for order, lists in enumerate(alloc.free_lists):
        for mt, flist in lists.items():
            imt = int(mt)
            if flist and not (alloc._occ[imt] >> order & 1):
                raise FreelistDivergenceError(
                    f"{alloc.label}: occupancy bit clear for non-empty "
                    f"list order={order} mt={imt}")
            check = getattr(flist, "check_invariants", None)
            if check is not None:
                try:
                    check()
                except Exception as exc:
                    raise FreelistDivergenceError(
                        f"{alloc.label}: intrusive-list invariants broken "
                        f"at order={order} mt={imt}: {exc}") from exc
            for pfn in flist:
                if mem.free_order[pfn] != order:
                    raise FreelistDivergenceError(
                        f"{alloc.label}: listed at order {order} but "
                        f"free_order[{pfn}] = {mem.free_order[pfn]}",
                        pfn=pfn)
                if mem.is_allocated(pfn):
                    raise FreelistDivergenceError(
                        f"{alloc.label}: allocated frame on free list "
                        f"order={order} mt={imt}", pfn=pfn)
                if mem.free_mt[pfn] != imt:
                    raise MigratetypeDriftError(
                        f"{alloc.label}: on mt-{imt} list but "
                        f"free_mt[{pfn}] = {mem.free_mt[pfn]}", pfn=pfn)
                counted += 1 << order
                listed_by_mt[imt] = listed_by_mt.get(imt, 0) + (1 << order)
    if counted != alloc.nr_free:
        raise FreelistDivergenceError(
            f"{alloc.label}: nr_free {alloc.nr_free} != {counted} frames "
            f"on the lists")
    # Aggregate per-type drift: recount free frames per migratetype from
    # the arrays, restricted to this allocator's range.
    import numpy as np

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
    for alloc in kernel.allocators():
        verify_allocator(alloc)
    mem = kernel.mem
    free = mem.free_frames()
    on_lists = kernel.free_frames()
    if free != on_lists:
        raise FreelistDivergenceError(
            f"{free} frames free in memory vs {on_lists} on free lists")
    kernel.handles.check_invariants(mem)
    heads = int((mem.alloc_order >= 0).sum()) - kernel.offlined_frames()
    if heads != len(kernel.handles):
        raise SanitizerError(
            f"{heads} allocation heads in memory vs "
            f"{len(kernel.handles)} handle registry entries")
