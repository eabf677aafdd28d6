"""Stable references to allocations that survive page migration.

Workloads and kernel subsystems hold :class:`PageHandle` objects, or
the registry slot numbers that stand for them, rather than raw PFNs:
compaction, Contiguitas pin-migration, and Contiguitas-HW all relocate
physical pages underneath their owners, and the :class:`HandleRegistry`
is the simulator's analogue of updating the page tables / reverse
mappings so owners keep working after a move.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, not_

import numpy as np

from ..errors import DoubleAllocError, SanitizerError
from .page import AllocSource, MigrateType, PageFlag
from .sections import rows_of


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
        slot: the registry slot that stands for it (-1: none).
    """

    __slots__ = ("pfn", "order", "migratetype", "source", "pinned",
                 "birth", "freed", "reclaimable", "slot")

    def __init__(
        self,
        pfn: int,
        order: int,
        migratetype: MigrateType,
        source: AllocSource,
        birth: int,
        pinned: bool = False,
        reclaimable: bool = False,
        slot: int = -1,
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
        self.slot = slot

    @property
    def nframes(self) -> int:
        return 1 << self.order

    def __repr__(self) -> str:
        state = "freed" if self.freed else ("pinned" if self.pinned else "live")
        return (f"PageHandle(pfn={self.pfn}, order={self.order}, "
                f"{self.source.name}, {state})")


#: ``PhysicalMemory.handle_slot`` where no registered allocation heads.
NO_HANDLE = -1

#: A slot's info byte: its allocation's order in the low bits, and two
#: flags above them.
_ORDER = 0x1F
RECLAIMABLE = 1 << 5
#: Registered by :meth:`HandleRegistry.register_batch` (an order-0 page
#: of a bulk allocation, no handle filed with it).
BULK = 1 << 6

_PINNED = 1 << PageFlag.PINNED
_MIGRATETYPES = tuple(MigrateType)
_SOURCES = tuple(AllocSource)


class HandleRegistry:
    """The one numbering of allocations: a slot per registration, and
    the :class:`PageHandle` each slot stands for.

    The reverse map is two int32 tables — the frame column
    ``mem.handle_slot`` (head PFN → slot, or :data:`NO_HANDLE`) and the
    slot table ``_slots`` (slot → PFN while the allocation lives, the
    freed marker ``~pfn`` (< 0) once it is freed) — and one info byte
    per slot (``_info``: order, :data:`RECLAIMABLE`, :data:`BULK`).  A
    slot is never reused, so a holder may keep a slot number instead of
    a handle for as long as it likes.  Everything else a live handle
    says — migrate type, source, birth, pinned — is the frame columns at
    its PFN, so these tables *are* the handle data a checkpoint writes.

    A handle exists only once somebody names its slot: :meth:`register`
    builds and files an owner's handle, a bulk allocation files none
    (:meth:`register_batch`), and :meth:`resolve` builds a slot's handle
    from the columns on first use.  ``_built`` (a list indexed by slot,
    ``None`` where no live handle is) keeps each live slot's handle, so
    every holder of the slot sees one object; a free drops it, and a
    later :meth:`resolve` of that slot builds one marked freed.
    """

    def __init__(self, mem) -> None:
        self.mem = mem
        self._col, self._col_mv = mem.handle_slot, mem.handle_slot_mv
        self._slots = array("i")
        self._info = bytearray()
        self._built: list[PageHandle | None] = []

    def __len__(self) -> int:
        return int(np.count_nonzero(self._col != NO_HANDLE))

    def __contains__(self, pfn: int) -> bool:
        return self._col_mv[pfn] != NO_HANDLE

    def register(self, pfn: int, order: int, migratetype: MigrateType,
                 source: AllocSource, birth: int, pinned: bool = False,
                 reclaimable: bool = False) -> PageHandle:
        """File a new allocation headed at *pfn* under a new slot;
        returns its handle."""
        col = self._col_mv
        if col[pfn] != NO_HANDLE:
            raise DoubleAllocError("duplicate head pfn in handle registry",
                                   pfn=pfn)
        built = self._built
        col[pfn] = slot = len(built)
        handle = PageHandle(pfn, order, migratetype, source, birth, pinned,
                            reclaimable, slot)
        built.append(handle)
        self._slots.append(pfn)
        self._info.append(order | reclaimable << 5)
        return handle

    def register_batch(self, pfns, reclaimable: bool) -> "HandleBatch":
        """Register one order-0 allocation per PFN without building a
        handle for any of them; the batch builds them on demand."""
        pfns = np.asarray(pfns, dtype=np.int32)
        taken = np.flatnonzero(self._col[pfns] != NO_HANDLE)
        if taken.size:
            raise DoubleAllocError("duplicate head pfn in handle registry",
                                   pfn=int(pfns[taken[0]]))
        slots = self._slots
        start = len(slots)
        slots.frombytes(pfns.tobytes())
        stop = len(slots)
        self._col[pfns] = np.arange(start, stop, dtype=np.int32)
        self._info += bytes((BULK | reclaimable << 5,)) * (stop - start)
        self._built += repeat(None, stop - start)
        return HandleBatch(self, start, stop)

    def resolve(self, slot: int) -> PageHandle:
        """The handle slot *slot* stands for, built on first use."""
        handle = self._built[slot]
        return handle if handle is not None else self._build(slot)

    def _build(self, slot: int) -> PageHandle:
        """A handle from the slot's tables and its frame's columns; a
        freed slot's carries its PFN, order and reclaimable bit, and the
        type, source and birth its frame holds now."""
        pfn, info, mem = self._slots[slot], self._info[slot], self.mem
        freed = pfn < 0
        if freed:
            pfn = ~pfn
        # The handles are the product: built once per slot, on request.
        handle = PageHandle(  # simlint: disable=SL009
            pfn, info & _ORDER, _MIGRATETYPES[mem.migratetype_mv[pfn]],
            _SOURCES[mem.source_mv[pfn]], mem.birth_mv[pfn],
            not freed and mem.flags_mv[pfn] & _PINNED != 0,
            info & RECLAIMABLE != 0, slot)
        if freed:
            handle.freed = True
        else:
            self._built[slot] = handle
        return handle

    def resolve_span(self, start: int, stop: int) -> list[PageHandle]:
        """Every handle of slots ``[start, stop)`` — a batch's iteration
        — building the missing ones in one pass over the columns."""
        span = self._built[start:stop]
        missing = span.count(None)
        if missing == len(span):
            return self._make(np.arange(start, stop))
        if missing:
            slots = np.fromiter(compress(range(start, stop),
                                         map(not_, span)), dtype=np.int64)
            for slot, handle in zip(slots.tolist(), self._make(slots)):
                span[slot - start] = handle
        return span

    def _make(self, slots: np.ndarray) -> list[PageHandle]:
        """:meth:`_build` for every slot of *slots* (none built yet)."""
        if not len(slots):
            return []
        mem = self.mem
        pfns = np.frombuffer(self._slots, dtype=np.int32)[slots]
        info = np.frombuffer(self._info, dtype=np.uint8)[slots]
        live = pfns >= 0
        at = np.where(live, pfns, ~pfns)
        fields = [_column(info & _ORDER), _column(mem.migratetype[at],
                                                   _MIGRATETYPES),
                  _column(mem.source[at], _SOURCES), _column(mem.birth[at]),
                  _column(live & (mem.flags[at] & _PINNED != 0)),
                  _column(info & RECLAIMABLE != 0)]
        # The handles are the product: built once per slot, on request.
        handles = list(map(  # simlint: disable=SL009
            PageHandle, memoryview(at), *fields, slots.tolist()))
        freed = np.flatnonzero(~live).tolist()
        for i in freed:
            handles[i].freed = True
        built, first, last = self._built, int(slots[0]), int(slots[-1])
        if last - first == len(slots) - 1:      # a run of slots
            built[first:last + 1] = handles
        else:
            for slot, handle in zip(slots.tolist(), handles):
                built[slot] = handle
        for i in freed:
            built[slots[i]] = None
        return handles

    def get(self, pfn: int) -> PageHandle:
        """The handle of the allocation headed at *pfn* (KeyError if
        none is)."""
        slot = self._col_mv[pfn]
        if slot == NO_HANDLE:
            raise KeyError(pfn)
        return self.resolve(slot)

    def on_free(self, handle: PageHandle) -> None:
        """Drop a handle when its allocation is released (KeyError
        unless *handle* is the one filed at its PFN)."""
        pfn = handle.pfn
        slot = self._col_mv[pfn]
        if self._built[slot] is not handle:
            raise KeyError(pfn)
        self._built[slot] = None
        self._slots[slot] = ~pfn
        self._col_mv[pfn] = NO_HANDLE
        handle.freed = True

    def relocate(self, old_pfn: int, new_pfn: int) -> None:
        """Repoint the allocation at *old_pfn* after a migration to
        *new_pfn* (the simulator's PTE/rmap update; KeyError if no
        registered allocation heads *old_pfn*)."""
        col = self._col_mv
        slot = col[old_pfn]
        if slot == NO_HANDLE:
            raise KeyError(old_pfn)
        self._slots[slot] = new_pfn
        col[old_pfn] = NO_HANDLE
        col[new_pfn] = slot
        handle = self._built[slot]
        if handle is not None:
            handle.pfn = new_pfn

    def _table(self) -> np.ndarray:
        """A copy of the slot table (a view would pin its buffer, and
        the table could not grow while the view lived)."""
        return np.frombuffer(self._slots, dtype=np.int32).copy()

    def check_invariants(self) -> None:
        """Sweep the registry against its memory: every column entry
        heads a live allocation of its slot's order and is the one its
        slot files (a slot's table PFN is its key, and a live slot's key
        holds it), and every built handle is live and says what its
        slot and its frame's columns say.

        Vectorised over the column and the slot table; only the built
        handles are read one by one.

        Raises:
            SanitizerError: naming the lowest PFN where they disagree.
        """
        col, mem = self._col, self.mem
        table, order = self._table(), mem.alloc_order
        info = np.frombuffer(self._info, dtype=np.uint8).copy()
        bad = np.zeros(len(col), dtype=bool)
        bad[(col < NO_HANDLE) | (col >= len(table))] = True
        keys = np.flatnonzero((col >= 0) & ~bad)
        slots = col[keys]
        bad[keys[(table[slots] != keys)
                 | (order[keys] != info[slots] & _ORDER)]] = True
        # A slot PFN outside memory is named at the key filing it.
        live = np.flatnonzero((table >= 0) & (table < len(col)))
        pfns = table[live]
        bad[pfns[col[pfns] != live]] = True
        # Every built handle sits at its own slot; one that does not is
        # named at its own PFN.
        handles = list(filter(None, self._built))
        fields = _fields(handles)
        filed = np.fromiter(
            (0 <= slot < len(table) and self._built[slot] is handle
             for slot, handle in zip(fields["slot"].tolist(), handles)),
            dtype=bool, count=len(handles))
        bad[np.clip(fields["pfn"][~filed], 0, len(col) - 1)] = True
        at = table[fields["slot"][filed]]
        pfn = np.where(at >= 0, at, ~at)
        inside = pfn < len(col)
        fields = {name: column[filed][inside]
                  for name, column in fields.items()}
        slots, at, pfn = fields["slot"], at[inside], pfn[inside]
        good = (at == fields["pfn"]) & (fields["freed"] == 0)
        good &= ((fields["order"] == order[pfn])
                 & (fields["migratetype"] == mem.migratetype[pfn])
                 & (fields["source"] == mem.source[pfn])
                 & (fields["birth"] == mem.birth[pfn])
                 & (fields["pinned"] == (mem.flags[pfn] & _PINNED != 0))
                 & (fields["reclaimable"] == (info[slots] & RECLAIMABLE
                                              != 0)))
        bad[pfn[~good]] = True
        if bad.any():
            pfn = int(np.flatnonzero(bad)[0])
            slot = int(col[pfn])
            filed = (self._built[slot] or f"slot {slot}"
                     if 0 <= slot < len(table) else "none")
            raise SanitizerError(
                f"handle registry entry {filed!r} does not match the "
                f"allocation it is filed under", pfn=pfn)

    def snapshot(self) -> dict:
        """The slot table and the info bytes (``mem.handle_slot`` is
        not written: the slot table determines it)."""
        return {"slots": self._table(),
                "info": np.frombuffer(self._info, dtype=np.uint8).copy()}

    def restore(self, state) -> None:
        """Load a :meth:`snapshot` into this (empty) registry, whose
        memory already holds the snapshot's frame columns, and file
        every live slot in ``mem.handle_slot``; a slot table naming a
        PFN outside memory raises ValueError (the restore sweep checks
        the rest)."""
        slots, info, nframes = state["slots"], state["info"], len(self._col)
        if len(slots) != len(info):
            raise ValueError("slot table and info bytes differ in length")
        if slots.size and not -nframes <= slots.min() <= slots.max() < nframes:
            raise ValueError("slot table PFNs outside memory")
        live = np.flatnonzero(slots >= 0)
        self._col.fill(NO_HANDLE)
        self._col[slots[live]] = live
        # In place: a holder may keep the tables' bound methods.
        del self._slots[:]
        self._slots.frombytes(slots.astype(np.int32, casting="safe")
                              .tobytes())
        self._info[:] = info.astype(np.uint8, casting="safe").tobytes()
        self._built[:] = repeat(None, len(slots))


def _column(values: np.ndarray, members: tuple = ()) -> Iterator:
    """One field of a run of handles, item by item: a repeat of the one
    value when all are equal (a batch's usual case), else the values
    through a memoryview (so no list of them lives while the handles
    are made); *members* maps an enum's values to its members."""
    first = values[0].item()
    if (values == first).all():
        return repeat(members[first] if members else first)
    items = memoryview(values)
    return map(members.__getitem__, items) if members else iter(items)


def _fields(handles: list[PageHandle]) -> dict[str, np.ndarray]:
    """Every field of *handles*, one column each."""
    rows = np.array(list(map(attrgetter(*PageHandle.__slots__), handles)),
                    dtype=np.int64).reshape(len(handles),
                                            len(PageHandle.__slots__))
    return dict(zip(PageHandle.__slots__, rows.T))


@dataclass(frozen=True, slots=True, eq=False)
class HandleBatch(Sequence):
    """What one bulk allocation returns: the read-only sequence of its
    handles, slots ``[start, stop)``, each built by the registry when
    first read.  ``len`` and truth build nothing.
    """

    registry: HandleRegistry
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index):
        picked = range(self.start, self.stop)[index]
        if type(picked) is int:
            return self.registry.resolve(picked)
        return list(map(self.registry.resolve, picked))

    def __iter__(self) -> Iterator[PageHandle]:
        return iter(self.registry.resolve_span(self.start, self.stop))


class HandleList:
    """A mutable list of allocations kept as their registry slots (an
    int32 ``array``), each resolved to its handle when read — the
    workload driver's page cache, most of which reclaim frees without
    the driver ever naming it, and the network rings.  Iteration and
    indexing yield handles; a snapshot is the array.
    """

    __slots__ = ("_registry", "_refs")

    def __init__(self, registry: HandleRegistry,
                 slots: array | None = None) -> None:
        self._registry = registry
        self._refs = array("i") if slots is None else slots

    @classmethod
    def restore(cls, registry: HandleRegistry, slots) -> "HandleList":
        """The list a :meth:`snapshot` wrote, each slot checked to be
        one of *registry*'s."""
        rows_of(slots, len(registry._slots))
        return cls(registry, array(
            "i", np.asarray(slots).astype(np.int32, casting="safe")
            .tobytes()))

    def snapshot(self) -> np.ndarray:
        return np.frombuffer(self._refs, dtype=np.int32).copy()

    def __len__(self) -> int:
        return len(self._refs)

    def __iter__(self) -> Iterator[PageHandle]:
        return map(self._registry.resolve, self._refs)

    def __getitem__(self, index: int) -> PageHandle:
        return self._registry.resolve(self._refs[index])

    def append(self, handle: PageHandle) -> None:
        self._refs.append(handle.slot)

    def extend(self, handles: Iterable[PageHandle]) -> None:
        """Append *handles*; a :class:`HandleBatch` goes in as its slot
        range, building none."""
        if type(handles) is HandleBatch:
            self._refs.frombytes(np.arange(handles.start, handles.stop,
                                           dtype=np.int32).tobytes())
        else:
            self._refs.extend(handle.slot for handle in handles)

    def clear(self) -> None:
        del self._refs[:]

    def swap_pop(self, index: int) -> PageHandle:
        """Remove and return item *index*, moving the last item into
        its place (O(1); builds only the one it returns)."""
        refs = self._refs
        refs[index], refs[-1] = refs[-1], refs[index]
        return self._registry.resolve(refs.pop())

    # The prunes below read ``freed`` and order without building a
    # handle: a slot's table value is its PFN (live) or the freed
    # marker (< 0), and its info byte holds its order.

    def cut_freed_prefix(self) -> int:
        """Drop the leading run of freed items in place; returns the
        frames they held."""
        slots, info = self._registry._slots, self._registry._info
        k = frames = 0
        for ref in self._refs:
            if slots[ref] >= 0:
                break
            frames += 1 << (info[ref] & _ORDER)
            k += 1
        del self._refs[:k]
        return frames

    def live(self) -> "HandleList":
        """A new list of the items not freed, in order."""
        refs = self.snapshot()
        keep = refs[self._registry._table()[refs] >= 0]
        return HandleList(self._registry, array("i", keep.tobytes()))

    def frames(self) -> int:
        """Frames held by every item."""
        info = np.frombuffer(self._registry._info, dtype=np.uint8).copy()
        return int((1 << (info[self.snapshot()] & _ORDER).astype(
            np.int64)).sum())
