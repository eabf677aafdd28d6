"""Stable references to allocations that survive page migration.

Workloads and kernel subsystems hold :class:`PageHandle` objects rather than
raw PFNs: compaction, Contiguitas pin-migration, and Contiguitas-HW all
relocate physical pages underneath their owners, and the
:class:`HandleRegistry` is the simulator's analogue of updating the page
tables / reverse mappings so owners keep working after a move.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from ..errors import DoubleAllocError, SanitizerError
from .page import AllocSource, MigrateType


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

    def __reduce__(self):
        # The persisted record is this tuple, not the slots: a slotted
        # class without a reduce goes through copyreg's slot-state path
        # (a fresh dict per handle on save, a setattr per slot on load),
        # which was 70 of an 80 ms checkpoint encode.  Pickle's memo
        # still shares one object between every structure holding it.
        return _restore_handle, (
            self.pfn, self.order, self.migratetype, self.source, self.birth,
            self.pinned | self.freed << 1 | self.reclaimable << 2)

    def __repr__(self) -> str:
        state = "freed" if self.freed else ("pinned" if self.pinned else "live")
        return (f"PageHandle(pfn={self.pfn}, order={self.order}, "
                f"{self.source.name}, {state})")


def _restore_handle(pfn, order, migratetype, source, birth, bits):
    """Rebuild a handle from the record :meth:`PageHandle.__reduce__`
    wrote: ``bits`` is ``pinned | freed << 1 | reclaimable << 2``."""
    handle = PageHandle(pfn, order, migratetype, source, birth,
                        bits & 1 == 1, bits & 4 == 4)
    handle.freed = bits & 2 == 2
    return handle


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
            if v >= 0 else _restore_handle(~v, 0, mt, source, birth, freed)
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

        Raises:
            SanitizerError: the first entry that disagrees.
        """
        slots = self._slots
        order_of = mem.alloc_order_mv
        for pfn, entry in self._by_pfn.items():
            handle = slots[entry] if type(entry) is int else entry
            at, order, freed = ((handle, 0, False) if type(handle) is int
                                else (handle.pfn, handle.order, handle.freed))
            if at != pfn or freed or order_of[pfn] != order:
                raise SanitizerError(
                    f"handle registry entry {handle!r} does not match the "
                    f"allocation it is filed under", pfn=pfn)


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
