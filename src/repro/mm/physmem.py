"""Physical memory model: packed per-frame state arrays.

:class:`PhysicalMemory` is the ground truth that every other component
(buddy allocator, compaction, Contiguitas regions, analysis scans) reads and
writes.  Per-frame metadata is stored in numpy arrays so that full-memory
scans — the measurement the paper performs across Meta's fleet (§2.4) — are
vectorised and fast even for multi-GiB simulated machines.
"""

from __future__ import annotations

import numpy as np

from ..errors import (
    ConfigurationError,
    DoubleAllocError,
    DoubleFreeError,
    FreeOfUnallocatedError,
    SimInvariantError,
)
from ..units import FRAME_SIZE, PAGEBLOCK_FRAMES, bytes_to_frames
from .page import AllocationInfo, AllocSource, MigrateType, PageFlag

_F_ALLOCATED = 1 << PageFlag.ALLOCATED
_F_HEAD = 1 << PageFlag.HEAD
_F_PINNED = 1 << PageFlag.PINNED
_F_POISON = 1 << PageFlag.HW_POISON

_I32_MIN, _I32_MAX = -1 << 31, (1 << 31) - 1

#: Largest order whose frames the scalar marks write one by one through
#: the memoryviews; above it the numpy slice stores win.
_SCALAR_MARK_ORDER = 3


def load_column(column: np.ndarray, value: np.ndarray) -> None:
    """Copy a snapshot's *value* into *column* in place: same shape (no
    broadcasting) and a dtype that widens safely, else ValueError or
    TypeError."""
    if value.shape != column.shape:
        raise ValueError(f"shape {value.shape}, expected {column.shape}")
    np.copyto(column, value, casting="safe")


class PhysicalMemory:
    """The frame array of one simulated server.

    Args:
        size_bytes: total physical memory; must be a whole number of
            pageblocks (2 MiB) so pageblock metadata lines up.

    Attributes (per-frame numpy arrays, indexed by PFN):
        flags: bitfield of :class:`~repro.mm.page.PageFlag`.
        migratetype: migrate type of the owning allocation (undefined when
            free).
        source: :class:`~repro.mm.page.AllocSource` of the owning allocation.
        free_order: order of the free buddy block headed at this frame, or
            -1 when the frame is not a free-block head (buddy bookkeeping).
        free_mt: migrate-type free list currently holding the free block
            headed at this frame (buddy bookkeeping, valid where
            ``free_order >= 0``).
        alloc_order: order of the allocation headed here, or -1.
        head_of: PFN of the allocation head owning this frame (valid only
            where ALLOCATED is set).
        birth: tick at which the allocation headed here was made.
        free_next, free_prev: successor/predecessor of the free-block
            head on its free list (-1 = list end; buddy bookkeeping).
        free_list_id: id of the free list linking the frame (0 = none).
        handle_slot: the handle registry's slot number of the allocation
            headed here, or :data:`~repro.mm.handle.NO_HANDLE` (-1, the
            initial value).
    """

    def __init__(self, size_bytes: int) -> None:
        nframes = bytes_to_frames(size_bytes)
        if not 0 < nframes < 1 << 31 or nframes % PAGEBLOCK_FRAMES:
            raise ConfigurationError(
                f"memory size {size_bytes} must be a positive multiple of "
                f"{PAGEBLOCK_FRAMES * FRAME_SIZE} bytes, under 2**31 frames"
            )
        self.size_bytes = size_bytes
        self.nframes = nframes
        self.npageblocks = nframes // PAGEBLOCK_FRAMES

        self.flags = np.zeros(nframes, dtype=np.uint8)
        self.migratetype = np.zeros(nframes, dtype=np.int8)
        self.source = np.zeros(nframes, dtype=np.int8)
        self.free_order = np.full(nframes, -1, dtype=np.int8)
        self.free_mt = np.zeros(nframes, dtype=np.int8)
        self.alloc_order = np.full(nframes, -1, dtype=np.int8)
        # Frame numbers and birth ticks are stored at the width they are
        # written (and checkpointed): int32, so 2**31 frames and 2**31
        # ticks.  A birth past that raises rather than wraps: ValueError
        # through the memoryview, OverflowError in the bulk mark.
        self.head_of = np.zeros(nframes, dtype=np.int32)
        self.birth = np.zeros(nframes, dtype=np.int32)
        # The buddy free lists are threaded through the frames, as Linux
        # threads them through ``struct page``.  Every allocator over
        # this memory links its lists here under ids of its own
        # (:meth:`reserve_list_ids`), so siblings' lists stay disjoint.
        self.free_next = np.full(nframes, -1, dtype=np.int32)
        self.free_prev = np.full(nframes, -1, dtype=np.int32)
        self.free_list_id = np.zeros(nframes, dtype=np.int32)
        self._list_ids = 0
        # The handle registry's PFN map (:class:`~repro.mm.HandleRegistry`).
        self.handle_slot = np.full(nframes, -1, dtype=np.int32)

        # Scalar views over the same buffers.  Single-frame reads and
        # writes through a memoryview skip numpy's dispatch and return
        # plain Python ints (no np scalar, no int() round-trip), which
        # roughly halves the cost of the order-0 alloc/free hot path.
        # Writes through either view land in the shared buffer, so the
        # vectorised slice paths above stay coherent.
        self.flags_mv = memoryview(self.flags)
        self.migratetype_mv = memoryview(self.migratetype)
        self.source_mv = memoryview(self.source)
        self.free_order_mv = memoryview(self.free_order)
        self.free_mt_mv = memoryview(self.free_mt)
        self.alloc_order_mv = memoryview(self.alloc_order)
        self.head_of_mv = memoryview(self.head_of)
        self.birth_mv = memoryview(self.birth)
        self.free_next_mv = memoryview(self.free_next)
        self.free_prev_mv = memoryview(self.free_prev)
        self.free_list_id_mv = memoryview(self.free_list_id)
        self.handle_slot_mv = memoryview(self.handle_slot)

        #: Optional :class:`~repro.analysis.sanitizer.FrameSanitizer`.
        #: When attached (``REPRO_DEBUG_VM=1`` / ``debug_vm=True``), the
        #: mark paths record per-PFN history so invariant failures carry
        #: the alloc/free trail that led there.
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Snapshot (the checkpoint schema)
    # ------------------------------------------------------------------

    #: The per-frame columns a snapshot holds: all but ``handle_slot``,
    #: which the handle registry's slot table determines (its restore
    #: rebuilds it).  The memoryview mirrors share their buffers and are
    #: never written.
    _COLUMNS = ("flags", "migratetype", "source", "free_order", "free_mt",
                "alloc_order", "head_of", "birth", "free_next", "free_prev",
                "free_list_id")

    def snapshot(self) -> dict:
        """Every frame column, as it is (no copy)."""
        return {name: getattr(self, name) for name in self._COLUMNS}

    def restore(self, state) -> None:
        """Copy a :meth:`snapshot` into this memory's own columns (so
        every view of them stays valid); a column of another length, or
        one that does not widen safely, raises ValueError/TypeError."""
        for name in self._COLUMNS:
            load_column(getattr(self, name), state[name])

    def reserve_list_ids(self, n: int) -> int:
        """Claim *n* fresh free-list ids for one allocator; returns the
        first (ids start at 1: a ``free_list_id`` of 0 means no list)."""
        first = self._list_ids + 1
        self._list_ids += n
        return first

    # ------------------------------------------------------------------
    # Invariant failures (cold paths, split out of the hot marks)
    # ------------------------------------------------------------------

    def _history(self, pfn: int) -> tuple:
        san = self.sanitizer
        return san.history(pfn) if san is not None else ()

    def _raise_double_alloc(self, pfn: int, order: int) -> None:
        raise DoubleAllocError(
            f"allocating order-{order} over a live frame", pfn=pfn,
            history=self._history(pfn))

    def _raise_bad_free(self, pfn: int) -> None:
        san = self.sanitizer
        if san is not None and san.last_action(pfn) == "free":
            raise DoubleFreeError("frame already freed", pfn=pfn,
                                  history=san.history(pfn))
        raise FreeOfUnallocatedError(
            "freeing a frame that is not an allocation head", pfn=pfn,
            history=self._history(pfn))

    # ------------------------------------------------------------------
    # Allocation bookkeeping (called by the buddy allocator / migration)
    # ------------------------------------------------------------------

    def mark_allocated(
        self,
        pfn: int,
        order: int,
        migratetype: MigrateType,
        source: AllocSource,
        birth: int,
        pinned: bool = False,
    ) -> None:
        """Record a live allocation of ``2**order`` frames headed at *pfn*."""
        if order == 0:
            # Scalar fast path: order-0 dominates workload traffic and
            # numpy's slice machinery costs more than the writes.
            if self.flags_mv[pfn]:
                self._raise_double_alloc(pfn, 0)
            self.flags_mv[pfn] = (_F_ALLOCATED | _F_HEAD
                                  | (_F_PINNED if pinned else 0))
            self.migratetype_mv[pfn] = int(migratetype)
            self.source_mv[pfn] = int(source)
            self.head_of_mv[pfn] = pfn
            self.alloc_order_mv[pfn] = 0
            self.birth_mv[pfn] = birth
            if self.sanitizer is not None:
                self.sanitizer.note_alloc(pfn, 0, birth)
            return
        end = pfn + (1 << order)
        body = _F_ALLOCATED | (_F_PINNED if pinned else 0)
        if order <= _SCALAR_MARK_ORDER:
            # Slab-sized blocks (2-8 frames): eight numpy slice
            # dispatches cost 5x what the same stores do through the
            # memoryviews.  Same checks, same typed error, same columns.
            frames = range(pfn, end)
            flags_mv, mt_mv = self.flags_mv, self.migratetype_mv
            source_mv, head_mv = self.source_mv, self.head_of_mv
            for p in frames:
                if flags_mv[p]:
                    self._raise_double_alloc(pfn, order)
            imt, isrc = int(migratetype), int(source)
            for p in frames:
                flags_mv[p] = body
                mt_mv[p] = imt
                source_mv[p] = isrc
                head_mv[p] = pfn
        else:
            if self.flags[pfn:end].any():
                self._raise_double_alloc(pfn, order)
            self.flags[pfn:end] = body
            self.migratetype[pfn:end] = int(migratetype)
            self.source[pfn:end] = int(source)
            self.head_of[pfn:end] = pfn
        self.flags_mv[pfn] = body | _F_HEAD
        self.alloc_order_mv[pfn] = order
        self.birth_mv[pfn] = birth
        if self.sanitizer is not None:
            self.sanitizer.note_alloc(pfn, order, birth)

    def mark_allocated_bulk(
        self,
        pfns: np.ndarray,
        migratetype: MigrateType,
        source: AllocSource,
        birth: int,
    ) -> None:
        """Vectorised form of unpinned order-0 :meth:`mark_allocated` over
        a batch of head PFNs (unique, all currently free): the per-frame
        columns are written with fancy-index stores instead of one
        Python call per frame.  Raises the same typed error as the
        scalar path on the first already-live frame."""
        if not _I32_MIN <= birth <= _I32_MAX:
            # NumPy 1.x wraps a fancy-index store of an out-of-range int.
            raise OverflowError(f"birth tick {birth} does not fit int32")
        flags = self.flags
        if flags[pfns].any():
            bad = int(pfns[np.flatnonzero(flags[pfns])[0]])
            self._raise_double_alloc(bad, 0)
        flags[pfns] = _F_ALLOCATED | _F_HEAD
        self.migratetype[pfns] = int(migratetype)
        self.source[pfns] = int(source)
        self.head_of[pfns] = pfns
        self.alloc_order[pfns] = 0
        self.birth[pfns] = birth
        if self.sanitizer is not None:
            note = self.sanitizer.note_alloc
            for p in pfns.tolist():
                note(p, 0, birth)

    def mark_free(self, pfn: int) -> int:
        """Clear a live allocation headed at *pfn*; returns its order."""
        order = self.alloc_order_mv[pfn]
        if order < 0:
            self._raise_bad_free(pfn)
        if order == 0:
            self.flags_mv[pfn] = 0
        elif order <= _SCALAR_MARK_ORDER:
            flags_mv = self.flags_mv
            for p in range(pfn, pfn + (1 << order)):
                flags_mv[p] = 0
        else:
            self.flags[pfn:pfn + (1 << order)] = 0
        self.alloc_order_mv[pfn] = -1
        if self.sanitizer is not None:
            self.sanitizer.note_free(pfn, order)
        return order

    def pin(self, pfn: int) -> None:
        """Pin the allocation headed at *pfn* (becomes unmovable)."""
        end = pfn + (1 << int(self.alloc_order[pfn]))
        self.flags[pfn:end] |= _F_PINNED

    def unpin(self, pfn: int) -> None:
        """Unpin the allocation headed at *pfn*."""
        end = pfn + (1 << int(self.alloc_order[pfn]))
        self.flags[pfn:end] &= ~np.uint8(_F_PINNED)

    def poison(self, pfn: int) -> None:
        """Mark frame *pfn* hardware-poisoned (uncorrectable error).

        Only the single faulting frame is poisoned, like Linux
        ``memory_failure``.  The flag rides on the per-frame bitfield,
        so ``mark_free`` clears it with the rest — the kernel's
        deferred-offline set is the durable record for frames whose
        owner has not released them yet.
        """
        self.flags_mv[pfn] = self.flags_mv[pfn] | _F_POISON

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_allocated(self, pfn: int) -> bool:
        return bool(self.flags_mv[pfn] & _F_ALLOCATED)

    def is_pinned(self, pfn: int) -> bool:
        return bool(self.flags_mv[pfn] & _F_PINNED)

    def is_poisoned(self, pfn: int) -> bool:
        return bool(self.flags_mv[pfn] & _F_POISON)

    def range_poisoned(self, pfn: int, nframes: int) -> bool:
        """Whether any frame in ``[pfn, pfn + nframes)`` is poisoned."""
        return bool((self.flags[pfn:pfn + nframes] & _F_POISON).any())

    def allocation_info(self, pfn: int) -> AllocationInfo:
        """Describe the allocation owning frame *pfn* (head or member)."""
        if not self.is_allocated(pfn):
            raise SimInvariantError(f"pfn {pfn} is free, not an allocation")
        head = int(self.head_of[pfn])
        return AllocationInfo(
            pfn=head,
            order=int(self.alloc_order[head]),
            migratetype=MigrateType(int(self.migratetype[head])),
            source=AllocSource(int(self.source[head])),
            pinned=self.is_pinned(head),
            birth=int(self.birth[head]),
            poisoned=bool(self.flags_mv[head] & _F_POISON),
        )

    def allocated_mask(self, start: int = 0,
                       end: int | None = None) -> np.ndarray:
        """Boolean array: True where the frame belongs to a live
        allocation.  Like the other masks, ``(start, end)`` restricts it
        to that frame range — sliced *before* any temporary is built."""
        return (self.flags[start:end] & _F_ALLOCATED) != 0

    def pinned_mask(self, start: int = 0,
                    end: int | None = None) -> np.ndarray:
        """Boolean array: True where the frame is pinned."""
        return (self.flags[start:end] & _F_PINNED) != 0

    def poisoned_mask(self) -> np.ndarray:
        """Boolean array: True where the frame is hardware-poisoned."""
        return (self.flags & _F_POISON) != 0

    def offlined_frames(self) -> int:
        """Number of hard-offlined (poisoned) frames."""
        return int(np.count_nonzero(self.poisoned_mask()))

    def unmovable_mask(self, start: int = 0,
                       end: int | None = None) -> np.ndarray:
        """Boolean array: True where the frame cannot be moved by software.

        A frame is unmovable when it is allocated and either pinned or owned
        by a kernel (non-USER) source.
        """
        allocated = self.allocated_mask(start, end)
        kernel = self.source[start:end] != int(AllocSource.USER)
        return allocated & (kernel | self.pinned_mask(start, end))

    def free_frames(self) -> int:
        """Number of frames not belonging to any allocation."""
        return int(self.nframes - np.count_nonzero(self.allocated_mask()))

    def pageblock_of(self, pfn: int) -> int:
        """Pageblock index containing *pfn*."""
        return pfn // PAGEBLOCK_FRAMES
