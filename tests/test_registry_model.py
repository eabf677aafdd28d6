"""The handle registry against ``reference_registry``'s plain dicts.

A hypothesis state machine registers pages one by one and in batches,
resolves slots, looks pages up, moves, pins and frees them, and lets the
reclaim LRU free the oldest — on a ``HandleRegistry`` over a real
``PhysicalMemory`` and on the model.  After every rule the two agree on
``len``, membership and the LRU's page count, and the registry's own
sweep (``check_invariants``) is clean; every lookup returns the model's
fields and slot.  At random points the registry and its LRU go through
the checkpoint envelope and are restored into a fresh memory, which
must snapshot to the same sections and carry on as the model does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.errors import DoubleAllocError
from repro.mm import (
    AllocSource,
    HandleRegistry,
    MigrateType,
    PageHandle,
    PhysicalMemory,
    ReclaimLRU,
    VmStat,
)
from repro.mm.sections import nest, scope
from repro.units import MiB

from reference_registry import RefRegistry

from conftest import mark_head, move_head, through_envelope

#: PFNs the machine uses (of the 512 a 2 MiB memory has): few enough
#: that frees, moves and duplicates keep colliding.
NPFNS = 48
PICK = st.integers(0, 1 << 16)


def fields(handle: PageHandle) -> tuple:
    if handle.freed:
        return handle.pfn, handle.order, handle.freed, handle.reclaimable
    return (handle.pfn, handle.order, handle.freed, handle.reclaimable,
            handle.migratetype, handle.source, handle.birth)


def snapshot(mem, registry, lru) -> dict:
    return {**nest("mem", mem.snapshot()),
            **nest("registry", registry.snapshot()),
            **nest("lru", lru.snapshot())}


def same_sections(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray)
        else a[k] == b[k] for k in a)


class RegistryMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.mem = PhysicalMemory(MiB(2))
        self.registry = HandleRegistry(self.mem)
        self.lru = ReclaimLRU(VmStat(), self.registry)
        self.ref = RefRegistry()
        self.now = 0

    def _pick(self, pick: int, live: bool) -> int | None:
        pfns = [p for p in range(NPFNS) if (p in self.ref.by_pfn) == live]
        return pfns[pick % len(pfns)] if pfns else None

    def _free(self, handle: PageHandle) -> None:
        """``LinuxKernel.free_pages``'s registry half."""
        if handle.reclaimable:
            self.lru.forget(handle)
        self.registry.on_free(handle)
        self.mem.alloc_order[handle.pfn] = -1
        self.mem.flags[handle.pfn] = 0

    @rule(pick=PICK, order=st.integers(0, 3),
          mt=st.sampled_from(list(MigrateType)),
          source=st.sampled_from(list(AllocSource)),
          reclaimable=st.booleans())
    def register(self, pick, order, mt, source, reclaimable):
        pfn = self._pick(pick, live=False)
        if pfn is None:
            return
        self.now += 1
        handle = mark_head(self.mem, self.registry.register(
            pfn, order, mt, source, self.now, reclaimable=reclaimable))
        if reclaimable:
            self.lru.register(handle)
        self.ref.register(pfn, order, mt, source, self.now, reclaimable)

    @rule(pick=PICK, count=st.integers(1, 12), reclaimable=st.booleans())
    def register_batch(self, pick, count, reclaimable):
        free = [p for p in range(NPFNS) if p not in self.ref.by_pfn]
        pfns = free[pick % (len(free) + 1):][:count]
        if not pfns:
            return
        self.now += 1
        args = (pfns, MigrateType.MOVABLE, AllocSource.USER, self.now,
                reclaimable)
        batch = self.registry.register_batch(pfns, reclaimable)
        if reclaimable:
            self.lru.register_batch(batch)
        for pfn in pfns:
            mark_head(self.mem, PageHandle(pfn, 0, *args[1:4]))
        self.ref.register_batch(*args)

    @rule(pick=PICK, batch=st.booleans())
    def register_a_live_pfn(self, pick, batch):
        pfn = self._pick(pick, live=True)
        if pfn is None:
            return
        before = len(self.registry._slots)
        with pytest.raises(DoubleAllocError):
            if batch:
                free = [p for p in range(NPFNS) if p not in self.ref.by_pfn]
                self.registry.register_batch(free[:2] + [pfn], False)
            else:
                self.registry.register(
                    pfn, 0, MigrateType.MOVABLE, AllocSource.USER, self.now)
        assert len(self.registry._slots) == before

    @precondition(lambda self: self.ref.slots)
    @rule(pick=PICK)
    def resolve(self, pick):
        slot = pick % len(self.ref.slots)
        assert (fields(self.registry.resolve(slot))
                == self.ref.slots[slot].fields())

    @rule(pick=PICK)
    def get(self, pick):
        pfn = self._pick(pick, live=True)
        if pfn is None:
            return
        handle, page = self.registry.get(pfn), self.ref.by_pfn[pfn]
        assert fields(handle) == page.fields()
        assert handle.slot == page.slot

    @rule(old=PICK, new=PICK)
    def relocate(self, old, new):
        old, new = self._pick(old, live=True), self._pick(new, live=False)
        if old is None or new is None:
            return
        self.registry.relocate(old, new)
        move_head(self.mem, old, new)
        assert (fields(self.registry.get(new))
                == self.ref.relocate(old, new).fields())

    @rule(pick=PICK)
    def pin(self, pick):
        """A pinned page is freed alone by reclaim, still in LRU order."""
        pfn = self._pick(pick, live=True)
        if pfn is not None:
            self.registry.get(pfn).pinned = True
            self.mem.flags[pfn] |= 4

    @rule(pick=PICK)
    def free(self, pick):
        pfn = self._pick(pick, live=True)
        if pfn is not None:
            self._free(self.registry.get(pfn))
            self.ref.free(pfn)

    @rule(frames=st.integers(1, 20))
    def reclaim(self, frames):
        victims: list[int] = []

        def free_fn(handle: PageHandle) -> None:
            victims.append(handle.pfn)
            self._free(handle)

        def free_run(pfns: list[int]) -> None:
            victims.extend(pfns)
            self.mem.alloc_order[pfns] = -1
            self.mem.flags[pfns] = 0

        self.lru.reclaim(free_fn, free_run, frames)
        assert victims == self.ref.reclaim(frames)

    @rule()
    def round_trip(self):
        sections = through_envelope(snapshot(self.mem, self.registry,
                                             self.lru))
        mem = PhysicalMemory(MiB(2))
        mem.restore(scope("mem", sections))
        registry = HandleRegistry(mem)
        lru = ReclaimLRU(VmStat(), registry)
        registry.restore(scope("registry", sections))
        lru.restore(scope("lru", sections))
        assert same_sections(snapshot(mem, registry, lru),
                             snapshot(self.mem, self.registry, self.lru))
        self.mem, self.registry, self.lru = mem, registry, lru

    @invariant()
    def agrees_with_the_model(self):
        assert len(self.registry) == len(self.ref.by_pfn)
        assert len(self.lru) == len(self.ref.lru)
        assert [p in self.registry for p in range(NPFNS)] == [
            p in self.ref.by_pfn for p in range(NPFNS)]
        self.registry.check_invariants()


def test_the_registry_matches_the_plain_dict_model():
    run_state_machine_as_test(RegistryMachine, settings=settings(
        max_examples=20, stateful_step_count=40, deadline=None))
