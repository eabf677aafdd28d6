"""Stable references to allocations that survive page migration.

Workloads and kernel subsystems hold :class:`PageHandle` objects rather than
raw PFNs: compaction, Contiguitas pin-migration, and Contiguitas-HW all
relocate physical pages underneath their owners, and the
:class:`HandleRegistry` is the simulator's analogue of updating the page
tables / reverse mappings so owners keep working after a move.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, count, filterfalse
from operator import attrgetter

import numpy as np

from ..errors import DoubleAllocError, SanitizerError
from .page import AllocSource, MigrateType
from .sections import int64, nest, rows_of, scope


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


def _from_record(pfn, order, migratetype, source, birth, bits):
    """A handle from its record: ``bits`` is ``pinned | freed << 1 |
    reclaimable << 2`` (a snapshot's handle table, and a freed-marker
    slot's build)."""
    handle = PageHandle(pfn, order, migratetype, source, birth,
                        bits & 1 == 1, bits & 4 == 4)
    handle.freed = bits & 2 == 2
    return handle


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
        rows.update(zip(filterfalse(rows.__contains__,
                                    dict.fromkeys(handles)),
                        count(len(rows))))
        return list(map(rows.__getitem__, handles))

    def refs(self, refs: list) -> dict:
        """A list of ints and handles (slot numbers, PFNs or freed
        markers beside built handles) as sections: ``ints``, the list
        with 0 where a handle sits, ``at`` the handles' positions and
        ``rows`` their rows."""
        ints, at = _ints(refs)
        return {"ints": ints, "at": int64(at),
                "rows": int64(self.rows([refs[i] for i in at]))}

    def snapshot(self) -> dict:
        """The table: one column per field, ``bits`` = ``pinned |
        freed << 1 | reclaimable << 2``."""
        fields = int64(list(chain.from_iterable(map(attrgetter(
            "pfn", "order", "migratetype", "source", "birth", "pinned",
            "freed", "reclaimable"), self._rows)))).reshape(-1, 8)
        return {"pfn": fields[:, 0], "order": fields[:, 1].astype(np.int8),
                "migratetype": fields[:, 2].astype(np.int8),
                "source": fields[:, 3].astype(np.int8),
                "birth": fields[:, 4], "bits": (
                    fields[:, 5] | fields[:, 6] << 1
                    | fields[:, 7] << 2).astype(np.uint8)}

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


class HandleRegistry:
    """Maps head PFN → :class:`PageHandle` for every live allocation.

    A bulk allocation registers *slots*, not objects: ``_slots[slot]``
    is the page's PFN until somebody names the page, its handle from
    then on (freed or not, so every holder of the slot sees one object),
    and ``_by_pfn`` maps a bulk page's current head PFN to its slot
    number.  Pinning and moving take the handle, and so does every free
    but one: reclaim frees a page nobody named without naming it, drops
    its ``_by_pfn`` entry and leaves the freed marker ``~pfn`` (< 0) in
    the slot (:meth:`~repro.mm.reclaim.ReclaimLRU.reclaim`).  So a slot
    still holding a PFN (>= 0) has never been freed, pinned or moved:
    that PFN is still its key.  :meth:`resolve` builds a marked slot's
    handle freed.
    """

    def __init__(self) -> None:
        self._by_pfn: dict[int, PageHandle | int] = {}
        self._slots: list[int | PageHandle] = []
        #: Per bulk call, in slot order: its first slot, and what its
        #: handles are built with after ``(pfn, 0)``: ``(migratetype,
        #: source, birth, pinned=False, reclaimable)``.
        self._batch_starts: list[int] = []
        self._batch_fields: list[tuple] = []

    def __len__(self) -> int:
        return len(self._by_pfn)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._by_pfn

    def register(self, handle: PageHandle) -> PageHandle:
        if handle.pfn in self._by_pfn:
            raise DoubleAllocError("duplicate head pfn in handle registry",
                                   pfn=handle.pfn)
        self._by_pfn[handle.pfn] = handle
        return handle

    def register_batch(self, pfns: list[int], migratetype: MigrateType,
                       source: AllocSource, birth: int,
                       reclaimable: bool) -> "HandleBatch":
        """Register one order-0 allocation per PFN without building a
        handle for any of them; the batch builds them on demand."""
        by_pfn = self._by_pfn
        if not by_pfn.keys().isdisjoint(pfns):
            raise DoubleAllocError("duplicate head pfn in handle registry",
                                   pfn=next(p for p in pfns if p in by_pfn))
        slots = self._slots
        start = len(slots)
        slots.extend(pfns)
        by_pfn.update(zip(pfns, range(start, len(slots))))
        self._batch_starts.append(start)
        self._batch_fields.append(
            (migratetype, source, birth, False, reclaimable))
        return HandleBatch(self, start, len(slots))

    def resolve(self, ref: int | PageHandle) -> PageHandle:
        """The handle *ref* stands for: itself, or — *ref* being a slot
        number — that slot's, built on first use."""
        if type(ref) is not int:
            return ref
        handle = self._slots[ref]
        return (handle if type(handle) is not int
                else self.resolve_span(ref, ref + 1)[0])

    def resolve_span(self, start: int, stop: int) -> list[PageHandle]:
        """Every handle of slots ``[start, stop)`` of one batch, in one
        pass (whole-batch iteration costs what eager construction did)."""
        slots = self._slots
        mt, source, birth, pinned, reclaimable = self._fields_of(start)
        freed = pinned | 2 | reclaimable << 2   # a marked slot's record
        slots[start:stop] = out = [
            v if type(v) is not int
            else PageHandle(v, 0, mt, source, birth, pinned, reclaimable)
            if v >= 0 else _from_record(~v, 0, mt, source, birth, freed)
            for v in slots[start:stop]]
        return out

    def _fields_of(self, slot: int) -> tuple:
        return self._batch_fields[
            bisect_right(self._batch_starts, slot) - 1]

    def slot_of(self, handle: PageHandle) -> int:
        """The slot a live *handle* was built from; -1 for a handle
        that :meth:`register` took."""
        entry = self._by_pfn.get(handle.pfn)
        return entry if type(entry) is int else -1

    def get(self, pfn: int) -> PageHandle:
        return self.resolve(self._by_pfn[pfn])

    def on_free(self, handle: PageHandle) -> None:
        """Drop a handle when its allocation is released."""
        del self._by_pfn[handle.pfn]
        handle.freed = True

    def relocate(self, old_pfn: int, new_pfn: int) -> PageHandle:
        """Repoint the handle at *old_pfn* after a migration to *new_pfn*
        (the simulator's PTE/rmap update)."""
        entry = self._by_pfn.pop(old_pfn)
        handle = self.resolve(entry)
        handle.pfn = new_pfn
        self._by_pfn[new_pfn] = entry
        return handle

    def check_invariants(self, mem) -> None:
        """Sweep every entry against *mem*: its key heads a live
        allocation of the handle's order (0 for an unbuilt slot), a
        built or scalar handle sits at its own PFN and is not freed, an
        unbuilt slot's table PFN is its key — so no entry is filed under
        a slot holding the freed marker, a negative int.

        Vectorised over the keys and slots; only the handles (scalar
        entries and built slots) are read one by one.

        Raises:
            SanitizerError: the first entry that disagrees.
        """
        by_pfn, slots = self._by_pfn, self._slots
        if not by_pfn:
            return
        # The slot table first: its PFNs are the key objects (see
        # :meth:`snapshot`).
        table, built = _ints(slots)
        keys = int64(list(by_pfn))
        # Each key's slot number, 0 for a scalar entry (a handle).
        entries = list(by_pfn.values())
        index, scalar = _ints(entries)
        is_scalar = np.zeros(len(keys), dtype=bool)
        is_scalar[scalar] = True
        # Where each entry says its allocation is: its slot's table
        # value (a PFN, or the freed marker, < 0), or — a scalar entry,
        # or a slot holding a built handle — the PFN its handle says,
        # -1 (no key) for a freed one; and of what order.
        if len(table):
            at = table[index]
            is_built = np.zeros(len(table), dtype=bool)
            is_built[built] = True
            via_slot = np.flatnonzero(is_built[index] & ~is_scalar)
        else:       # no slot at all: only a scalar entry can match
            at = np.full(len(keys), -1, dtype=np.int64)
            via_slot = np.empty(0, dtype=np.int64)
        handles = [entries[i] for i in scalar] + [
            slots[s] for s in index[via_slot].tolist()]
        orders = np.zeros(len(keys), dtype=np.int64)
        if handles:
            named = np.concatenate((int64(scalar), via_slot))
            fields = int64(list(chain.from_iterable(map(
                attrgetter("pfn", "order", "freed"), handles)))).reshape(-1, 3)
            at[named] = np.where(fields[:, 2] != 0, -1, fields[:, 0])
            orders[named] = fields[:, 1]
        bad = np.flatnonzero((at != keys) | (mem.alloc_order[keys] != orders))
        if bad.size:
            i = int(bad[0])
            entry = entries[i]
            filed = slots[entry] if type(entry) is int else entry
            raise SanitizerError(
                f"handle registry entry {filed!r} does not match the "
                f"allocation it is filed under", pfn=int(keys[i]))

    def snapshot(self, table: HandleTable) -> dict:
        """The registry as stored: ``_by_pfn`` keys and entries, the
        slot table and the per-batch fields; handles as table rows."""
        # The slot table first: an unbuilt slot's PFN is the very int
        # object that keys its page, so the keys read warm after it.
        slots = nest("slots", table.refs(self._slots))
        return {"keys": int64(list(self._by_pfn)),
                **nest("entries", table.refs(list(self._by_pfn.values()))),
                **slots,
                "batches": [[start, int(mt), int(source), birth, pinned,
                             reclaimable] for start, (
                                 mt, source, birth, pinned, reclaimable)
                            in zip(self._batch_starts, self._batch_fields)]}

    def restore(self, state, handles: list[PageHandle]) -> None:
        """Load a :meth:`snapshot` into this (empty) registry."""
        entries = refs_restore(scope("entries", state), handles)
        self._by_pfn = dict(zip(state["keys"].tolist(), entries,
                                strict=True))
        self._slots = refs_restore(scope("slots", state), handles)
        self._batch_starts = [start for start, *_ in state["batches"]]
        self._batch_fields = [
            (MigrateType(mt), AllocSource(source), birth, pinned,
             reclaimable)
            for _, mt, source, birth, pinned, reclaimable
            in state["batches"]]


#: Items :func:`_ints` packs per ``struct`` call.
_CHUNK = 1024


def _ints(values: list) -> tuple[np.ndarray, list[int]]:
    """*values* (ints and handles) as an int64 array with 0 where a
    handle sits, and the handles' positions.

    Handles cluster (the registry files the network rings and heap
    first, the driver's page cache appends its scalar pages last), so a
    list with an int at both ends is tried whole, and any other goes in
    chunks: a chunk of ints packs in one pass, and only a chunk that
    refuses is scanned for its handles' types.
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

    # The two prunes below read ``freed`` without building a handle: an
    # unbuilt slot holds its PFN (live) or the freed marker (< 0).

    def cut_freed_prefix(self) -> int:
        """Drop the leading run of freed handles in place; returns the
        frames they held."""
        slots = self._registry._slots
        k = frames = 0
        for ref in self._refs:
            handle = slots[ref] if type(ref) is int else ref
            if handle >= 0 if type(handle) is int else not handle.freed:
                break
            frames += 1 if type(handle) is int else 1 << handle.order
            k += 1
        del self._refs[:k]
        return frames

    def live(self) -> "HandleList":
        """A new list of the handles not freed, in order."""
        slots = self._registry._slots
        return HandleList(self._registry, [
            ref for ref in self._refs
            if (handle >= 0 if type(
                handle := slots[ref] if type(ref) is int else ref) is int
                else not handle.freed)])

    def frames(self) -> int:
        """Frames held by every item (a slot is one order-0 page)."""
        return len(self._refs) + sum((1 << ref.order) - 1 for ref in self._refs
                                     if type(ref) is not int)
