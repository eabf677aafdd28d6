"""Stable references to allocations that survive page migration.

Workloads and kernel subsystems hold :class:`PageHandle` objects rather than
raw PFNs: compaction, Contiguitas pin-migration, and Contiguitas-HW all
relocate physical pages underneath their owners, and the
:class:`HandleRegistry` is the simulator's analogue of updating the page
tables / reverse mappings so owners keep working after a move.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import count, filterfalse

import numpy as np

from ..errors import DoubleAllocError, SanitizerError
from .page import AllocSource, MigrateType
from .sections import int64, rows_of


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

    def __repr__(self) -> str:
        state = "freed" if self.freed else ("pinned" if self.pinned else "live")
        return (f"PageHandle(pfn={self.pfn}, order={self.order}, "
                f"{self.source.name}, {state})")


class HandleTable:
    """Every :class:`PageHandle` one snapshot names, each written once.

    A holder writes a handle as its row here; restore builds each row's
    handle once, so every holder of one object gets one object back.
    """

    _COLUMNS = ("pfn", "order", "migratetype", "source", "birth", "bits")

    def __init__(self) -> None:
        # Identity-hashed: insertion order is row order.
        self._rows: dict[PageHandle, int] = {}

    def rows(self, handles) -> list[int]:
        """The row of each of *handles*, adding the ones not yet seen
        (in order of first appearance)."""
        rows, handles = self._rows, list(handles)
        if not rows:    # the first holder: its handles, unless repeated
            rows.update(zip(handles, count()))
            if len(rows) == len(handles):
                return list(range(len(handles)))
            rows.clear()
        try:    # most holders name only handles an earlier one named
            return list(map(rows.__getitem__, handles))
        except KeyError:
            rows.update(zip(filterfalse(rows.__contains__,
                                        dict.fromkeys(handles)),
                            count(len(rows))))
        return list(map(rows.__getitem__, handles))

    def refs(self, refs: list) -> dict:
        """A list of ints and handles (slot numbers beside handles, as
        a :class:`HandleList` holds them) as sections: ``ints``, the list
        with 0 where a handle sits, ``at`` the handles' positions and
        ``rows`` their rows."""
        ints, at = _ints(refs)
        return {"ints": ints, "at": int64(at),
                "rows": int64(self.rows([refs[i] for i in at]))}

    def snapshot(self) -> dict:
        """The table: one column per field, ``bits`` = ``pinned |
        freed << 1 | reclaimable << 2``."""
        rows = self._rows
        return {"pfn": int64([h.pfn for h in rows]),
                "order": _bytes([h.order for h in rows], np.int8),
                "migratetype": _bytes([h.migratetype for h in rows], np.int8),
                "source": _bytes([h.source for h in rows], np.int8),
                "birth": int64([h.birth for h in rows]),
                "bits": _bytes([h.pinned | h.freed << 1 | h.reclaimable << 2
                                for h in rows], np.uint8)}

    @classmethod
    def restore(cls, state) -> list[PageHandle]:
        """The handles of a :meth:`snapshot`, in row order."""
        columns = [state[name] for name in cls._COLUMNS]
        if len({len(column) for column in columns}) != 1:
            raise ValueError("handle table columns differ in length")
        pfn, order, mt, source, birth, bits = columns
        mts = {int(mt): mt for mt in MigrateType}
        sources = {int(src): src for src in AllocSource}
        handles = list(map(
            PageHandle, pfn.tolist(), order.tolist(),
            map(mts.__getitem__, mt.tolist()),
            map(sources.__getitem__, source.tolist()), birth.tolist(),
            (bits & 1 != 0).tolist(), (bits & 4 != 0).tolist()))
        for row in np.flatnonzero(bits & 2).tolist():
            handles[row].freed = True
        return handles


def refs_restore(state, handles: list[PageHandle]) -> list:
    """The list :meth:`HandleTable.refs` wrote."""
    refs = state["ints"].tolist()
    for i, row in zip(rows_of(state["at"], len(refs)),
                      rows_of(state["rows"], len(handles)), strict=True):
        refs[i] = handles[row]
    return refs


#: ``PhysicalMemory.handle_slot`` codes below the slot numbers: no
#: allocation heads here, or one whose handle :meth:`HandleRegistry.register`
#: took.
NO_HANDLE = -1
SCALAR = -2


class HandleRegistry:
    """Maps head PFN → :class:`PageHandle` for every live allocation.

    The map is a frame column, ``mem.handle_slot``: a bulk page's slot
    number, :data:`SCALAR` for a handle :meth:`register` took (those
    few live in ``_scalar``, keyed by PFN), or :data:`NO_HANDLE`.  A
    bulk allocation registers *slots*, not objects: the slot table
    ``_slots`` (an int64 ``array``) holds each page's PFN while it
    lives and the freed marker ``~pfn`` (< 0) once it is freed, and a
    handle exists only once somebody names the page — ``_built`` keeps
    it by slot from then on, freed or not, so every holder of the slot
    sees one object.  Pinning and moving take the handle, and so does
    every free but one: reclaim frees a page nobody named without
    naming it (:meth:`~repro.mm.reclaim.ReclaimLRU.reclaim`).  So an
    unbuilt slot has never been pinned, and :meth:`resolve` builds a
    marked slot's handle freed.
    """

    def __init__(self, mem) -> None:
        self.mem = mem
        self._col, self._col_mv = mem.handle_slot, mem.handle_slot_mv
        self._scalar: dict[int, PageHandle] = {}
        self._slots = array("q")
        self._built: dict[int, PageHandle] = {}
        #: Per bulk call, in slot order: its first slot, and what its
        #: handles are built with after ``(pfn, 0)``: ``(migratetype,
        #: source, birth, pinned=False, reclaimable)``.
        self._batch_starts: list[int] = []
        self._batch_fields: list[tuple] = []

    def __len__(self) -> int:
        return int(np.count_nonzero(self._col != NO_HANDLE))

    def __contains__(self, pfn: int) -> bool:
        return self._col_mv[pfn] != NO_HANDLE

    def register(self, handle: PageHandle) -> PageHandle:
        pfn = handle.pfn
        if self._col_mv[pfn] != NO_HANDLE:
            raise DoubleAllocError("duplicate head pfn in handle registry",
                                   pfn=pfn)
        self._col_mv[pfn] = SCALAR
        self._scalar[pfn] = handle
        return handle

    def register_batch(self, pfns, migratetype: MigrateType,
                       source: AllocSource, birth: int,
                       reclaimable: bool) -> "HandleBatch":
        """Register one order-0 allocation per PFN without building a
        handle for any of them; the batch builds them on demand."""
        pfns = np.asarray(pfns, dtype=np.int64)
        taken = np.flatnonzero(self._col[pfns] != NO_HANDLE)
        if taken.size:
            raise DoubleAllocError("duplicate head pfn in handle registry",
                                   pfn=int(pfns[taken[0]]))
        slots = self._slots
        start = len(slots)
        slots.frombytes(pfns.tobytes())
        self._col[pfns] = np.arange(start, len(slots))
        self._batch_starts.append(start)
        self._batch_fields.append(
            (migratetype, source, birth, False, reclaimable))
        return HandleBatch(self, start, len(slots))

    def resolve(self, ref: int | PageHandle) -> PageHandle:
        """The handle *ref* stands for: itself, or — *ref* being a slot
        number — that slot's, built on first use."""
        if type(ref) is not int:
            return ref
        handle = self._built.get(ref)
        return (handle if handle is not None
                else self.resolve_span(ref, ref + 1)[0])

    def resolve_span(self, start: int, stop: int) -> list[PageHandle]:
        """Every handle of slots ``[start, stop)`` of one batch, in one
        pass (whole-batch iteration costs what eager construction did)."""
        built, out = self._built, []
        mt, source, birth, pinned, reclaimable = self._fields_of(start)
        for slot, pfn in zip(range(start, stop), self._slots[start:stop]):
            handle = built.get(slot)
            if handle is None:
                # The handles are the product: built once, on request.
                handle = built[slot] = PageHandle(  # simlint: disable=SL009
                    pfn if pfn >= 0 else ~pfn, 0, mt, source, birth, pinned,
                    reclaimable)
                handle.freed = pfn < 0
            out.append(handle)
        return out

    def _fields_of(self, slot: int) -> tuple:
        return self._batch_fields[
            bisect_right(self._batch_starts, slot) - 1]

    def slot_of(self, handle: PageHandle) -> int:
        """The slot a live *handle* was built from; -1 for a handle
        that :meth:`register` took."""
        return max(self._col_mv[handle.pfn], -1)

    def get(self, pfn: int) -> PageHandle:
        slot = self._col_mv[pfn]
        return self.resolve(slot) if slot >= 0 else self._scalar[pfn]

    def on_free(self, handle: PageHandle) -> None:
        """Drop a handle when its allocation is released."""
        pfn = handle.pfn
        slot = self._col_mv[pfn]
        if slot >= 0:
            self._slots[slot] = ~pfn
        else:
            del self._scalar[pfn]
        self._col_mv[pfn] = NO_HANDLE
        handle.freed = True

    def relocate(self, old_pfn: int, new_pfn: int) -> PageHandle:
        """Repoint the handle at *old_pfn* after a migration to *new_pfn*
        (the simulator's PTE/rmap update)."""
        slot = self._col_mv[old_pfn]
        if slot >= 0:
            handle = self.resolve(slot)
            self._slots[slot] = new_pfn
        else:
            handle = self._scalar.pop(old_pfn)
            self._scalar[new_pfn] = handle
        self._col_mv[old_pfn] = NO_HANDLE
        self._col_mv[new_pfn] = slot
        handle.pfn = new_pfn
        return handle

    def _table(self) -> np.ndarray:
        """A copy of the slot table (a view would pin its buffer, and
        the table could not grow while the view lived)."""
        return np.frombuffer(self._slots, dtype=np.int64).copy()

    def check_invariants(self) -> None:
        """Sweep the registry against its memory: every column entry
        heads a live allocation of its handle's order (0 for a slot)
        and is the one its slot or scalar handle is filed under — a
        slot's table PFN is its key and a live slot's key holds it, a
        scalar handle sits at its own key, unfreed — and every built
        handle agrees with its slot's table value.

        Vectorised over the column and the slot table; only the scalar
        and built handles are read one by one.

        Raises:
            SanitizerError: naming the lowest PFN where they disagree.
        """
        col, order = self._col, self.mem.alloc_order
        table = self._table()
        bad = np.zeros(len(col), dtype=bool)
        keys = np.flatnonzero(col >= 0)
        bad[keys[(table[col[keys]] != keys) | (order[keys] != 0)]] = True
        live = np.flatnonzero(table >= 0)
        pfns = table[live]
        bad[pfns[col[pfns] != live]] = True
        scalar = col == SCALAR
        keys = int64(list(self._scalar))
        pfn, rank, freed = _fields(self._scalar.values())
        bad[keys[(pfn != keys) | freed | (order[keys] != rank)
                 | ~scalar[keys]]] = True
        scalar[keys] = False
        bad |= scalar       # a scalar entry with no handle
        at = table[int64(list(self._built))]
        pfn, rank, freed = _fields(self._built.values())
        wrong = at[(at != np.where(freed, ~pfn, pfn)) | (rank != 0)]
        bad[np.where(wrong < 0, ~wrong, wrong)] = True
        if bad.any():
            pfn = int(np.flatnonzero(bad)[0])
            slot = int(col[pfn])
            filed = (self._scalar.get(pfn) if slot == SCALAR
                     else self._built.get(slot, f"slot {slot}") if slot >= 0
                     else "none")
            raise SanitizerError(
                f"handle registry entry {filed!r} does not match the "
                f"allocation it is filed under", pfn=pfn)

    def snapshot(self, table: HandleTable) -> dict:
        """The registry beside ``mem.handle_slot`` (a section of the
        memory's): the slot table, the built handles by slot, the
        scalar handles and the per-batch fields; handles as table
        rows."""
        return {"slots": self._table(),
                "built.slots": int64(list(self._built)),
                "built.rows": int64(table.rows(self._built.values())),
                "scalar": int64(table.rows(self._scalar.values())),
                "batches": [[start, int(mt), int(source), birth, pinned,
                             reclaimable] for start, (
                                 mt, source, birth, pinned, reclaimable)
                            in zip(self._batch_starts, self._batch_fields)]}

    def restore(self, state, handles: list[PageHandle]) -> None:
        """Load a :meth:`snapshot` into this (empty) registry, whose
        memory already holds the snapshot's ``handle_slot`` column; a
        column, slot table or handle map that indexes outside the other
        or memory, or files two objects under one key, raises
        ValueError."""
        slots, nframes = state["slots"], len(self._col)
        if slots.size and not -nframes <= slots.min() <= slots.max() < nframes:
            raise ValueError("slot table PFNs outside memory")
        if not (SCALAR <= self._col.min() and self._col.max() < len(slots)):
            raise ValueError("handle column outside the slot table")
        table = slots.astype(np.int64, casting="safe")
        self._slots = array("q", table.tobytes())
        pick = handles.__getitem__
        self._built = dict(zip(
            rows_of(state["built.slots"], len(slots)),
            map(pick, rows_of(state["built.rows"], len(handles))),
            strict=True))
        scalar = list(map(pick, rows_of(state["scalar"], len(handles))))
        pfns = [handle.pfn for handle in scalar]
        self._scalar = dict(zip(pfns, scalar))
        if (len(self._built) != len(state["built.slots"])
                or len(self._scalar) != len(scalar)
                or pfns and not 0 <= min(pfns) <= max(pfns) < nframes):
            raise ValueError("a built slot or scalar PFN repeats, or a "
                             "scalar PFN lies outside memory")
        self._batch_starts = [start for start, *_ in state["batches"]]
        self._batch_fields = [
            (MigrateType(mt), AllocSource(source), birth, pinned,
             reclaimable)
            for _, mt, source, birth, pinned, reclaimable
            in state["batches"]]


def _fields(handles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``pfn``, ``order`` and ``freed`` columns of *handles*."""
    return (int64([h.pfn for h in handles]), int64([h.order for h in handles]),
            int64([h.freed for h in handles]) != 0)


def _bytes(values: list[int], dtype) -> np.ndarray:
    """Small non-negative ints (enum members too) as a one-byte column."""
    return np.frombuffer(bytes(values), dtype=dtype)


#: Items :func:`_ints` packs per ``struct`` call.
_CHUNK = 1024


def _ints(values: list) -> tuple[np.ndarray, list[int]]:
    """*values* (ints and handles) as an int64 array with 0 where a
    handle sits, and the handles' positions.

    Handles cluster (the driver's page cache appends its scalar pages
    after its bulk slots), so a list with an int at both ends is tried
    whole, and any other goes in chunks: a chunk of ints packs in one
    pass, and only a chunk that refuses is scanned for its handles'
    types.
    """
    if values and type(values[0]) is int and type(values[-1]) is int:
        try:
            return int64(values), []
        except struct.error:
            pass
    packed, at = [], []
    for lo in range(0, len(values), _CHUNK):
        chunk = values[lo:lo + _CHUNK]
        try:
            packed.append(struct.pack(f"<{len(chunk)}q", *chunk))
            continue
        except struct.error:
            pass
        kinds = list(map(type, chunk))
        handles = len(chunk) - kinds.count(int)
        found = list(range(handles)) if handles == len(chunk) else []
        i = -1
        while len(found) < handles:
            i = kinds.index(PageHandle, i + 1)
            found.append(i)
        for i in found:
            chunk[i] = 0
        at.extend(lo + i for i in found)
        packed.append(struct.pack(f"<{len(chunk)}q", *chunk))
    return np.frombuffer(b"".join(packed), dtype=np.int64), at


@dataclass(frozen=True, slots=True, eq=False)
class HandleBatch(Sequence):
    """What one bulk allocation returns: the read-only sequence of its
    handles, each built by the registry when first read.  ``len`` and
    truth build nothing; iteration builds the whole batch in one pass.
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
        return [self.registry.resolve(slot) for slot in picked]

    def __iter__(self) -> Iterator[PageHandle]:
        return iter(self.registry.resolve_span(self.start, self.stop))


class HandleList:
    """A mutable list of handles that keeps a bulk page as its slot
    number until the page is read — the workload driver's page cache,
    most of which reclaim frees without the driver ever naming it.
    Iteration and indexing yield handles.
    """

    __slots__ = ("_registry", "_refs")

    def __init__(self, registry: HandleRegistry,
                 refs: list[int | PageHandle] | None = None) -> None:
        self._registry = registry
        self._refs = [] if refs is None else refs

    def __len__(self) -> int:
        return len(self._refs)

    def __iter__(self) -> Iterator[PageHandle]:
        return map(self._registry.resolve, self._refs)

    def __getitem__(self, index: int) -> PageHandle:
        return self._registry.resolve(self._refs[index])

    def append(self, handle: PageHandle) -> None:
        self._refs.append(handle)

    def extend(self, handles) -> None:
        """Append *handles*; a :class:`HandleBatch` goes in as slots."""
        if type(handles) is HandleBatch:
            handles = range(handles.start, handles.stop)
        self._refs.extend(handles)

    def clear(self) -> None:
        self._refs.clear()

    def swap_pop(self, index: int) -> PageHandle:
        """Remove and return item *index*, moving the last item into
        its place (O(1); builds only the one it returns)."""
        refs = self._refs
        refs[index], refs[-1] = refs[-1], refs[index]
        return self._registry.resolve(refs.pop())

    # The two prunes below read ``freed`` without building a handle: a
    # slot's table value is its PFN (live) or the freed marker (< 0).

    def cut_freed_prefix(self) -> int:
        """Drop the leading run of freed handles in place; returns the
        frames they held."""
        slots = self._registry._slots
        k = frames = 0
        for ref in self._refs:
            if slots[ref] >= 0 if type(ref) is int else not ref.freed:
                break
            frames += 1 if type(ref) is int else 1 << ref.order
            k += 1
        del self._refs[:k]
        return frames

    def live(self) -> "HandleList":
        """A new list of the handles not freed, in order."""
        slots = self._registry._slots
        return HandleList(self._registry, [
            ref for ref in self._refs
            if (slots[ref] >= 0 if type(ref) is int else not ref.freed)])

    def frames(self) -> int:
        """Frames held by every item (a slot is one order-0 page)."""
        return len(self._refs) + sum((1 << ref.order) - 1 for ref in self._refs
                                     if type(ref) is not int)
