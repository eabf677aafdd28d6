"""Handle registry lifecycle and the placement policy."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlacementPolicy
from repro.errors import DoubleAllocError
from repro.mm import (
    AllocSource,
    HandleRegistry,
    MigrateType,
    PageHandle,
    ReclaimLRU,
    VmStat,
)
from repro.mm.handle import HandleList
from repro.mm.physmem import PhysicalMemory
from repro.mm.sections import nest, scope
from repro.units import MiB

from conftest import live_handles, mark_head, through_envelope


def fields(pfn=0, order=0):
    return pfn, order, MigrateType.MOVABLE, AllocSource.USER, 0


def handle(pfn=0, order=0):
    return PageHandle(*fields(pfn, order))


class TestPageHandle:
    def test_nframes(self):
        assert handle(order=3).nframes == 8

    def test_repr_states(self):
        h = handle()
        assert "live" in repr(h)
        h.pinned = True
        assert "pinned" in repr(h)
        h.freed = True
        assert "freed" in repr(h)


def _round_trip(registry, **holders) -> tuple[HandleRegistry, dict]:
    """*registry* and its memory through the checkpoint envelope into a
    fresh pair, with each holder's sections beside them."""
    sections = through_envelope({**nest("mem", registry.mem.snapshot()),
                                 **nest("registry", registry.snapshot()),
                                 **holders})
    mem = PhysicalMemory(registry.mem.size_bytes)
    mem.restore(scope("mem", sections))
    fresh = HandleRegistry(mem)
    fresh.restore(scope("registry", sections))
    return fresh, sections


class TestPageHandleRecord:
    """What a checkpoint persists of a handle is its registry slot: the
    slot table's PFN and one info byte (order, reclaimable, bulk), the
    rest being the frame columns at that PFN — written once however
    many holders name the slot."""

    @given(pfn=st.integers(0, 511), order=st.integers(0, 18),
           migratetype=st.sampled_from(MigrateType),
           source=st.sampled_from(AllocSource),
           birth=st.integers(0, 2**31 - 1), pinned=st.booleans(),
           freed=st.booleans(), reclaimable=st.booleans())
    def test_round_trip_keeps_all_eight_fields(
            self, pfn, order, migratetype, source, birth, pinned, freed,
            reclaimable):
        registry = HandleRegistry(PhysicalMemory(MiB(2)))
        h = mark_head(registry.mem, registry.register(
            pfn, order, migratetype, source, birth, pinned=pinned,
            reclaimable=reclaimable))
        if freed:
            registry.on_free(h)
        fresh, _ = _round_trip(registry)
        restored = fresh.resolve(h.slot)
        # A freed slot keeps its PFN, order and reclaimable bit.
        names = (("pfn", "order", "freed", "reclaimable", "slot") if freed
                 else PageHandle.__slots__)
        for clone in (restored, copy.copy(h)):
            assert clone is not h and type(clone) is PageHandle
            for name in names:
                # Same type too: enum members and real bools, not 0/1.
                value, cloned = getattr(h, name), getattr(clone, name)
                assert cloned == value and type(cloned) is type(value), name

    def test_the_record_is_a_slot_and_an_info_byte(self):
        registry = HandleRegistry(PhysicalMemory(MiB(2)))
        h = mark_head(registry.mem, registry.register(
            7, 2, MigrateType.UNMOVABLE, AllocSource.SLAB, 9,
            pinned=True, reclaimable=True))
        registry.register_batch([20, 21], reclaimable=False)
        record = {name: column.tolist()
                  for name, column in registry.snapshot().items()}
        assert record == {"slots": [7, 20, 21],
                          "info": [2 | 0x20, 0x40, 0x40]}
        fresh, _ = _round_trip(registry)
        assert fresh.resolve(h.slot).reclaimable and fresh.get(7).pinned

    def test_two_references_restore_to_one_object(self):
        registry = HandleRegistry(PhysicalMemory(MiB(2)))
        lru = ReclaimLRU(VmStat(), registry)
        h, other = (mark_head(registry.mem, registry.register(
            p, 0, MigrateType.MOVABLE, AllocSource.USER, 0,
            reclaimable=True)) for p in (5, 6))
        for each in (h, other):
            lru.register(each)
        cache = HandleList(registry)
        cache.extend([h, other, h])
        fresh, sections = _round_trip(
            registry, cache=cache.snapshot(), **nest("lru", lru.snapshot()))
        lru = ReclaimLRU(VmStat(), fresh)
        lru.restore(scope("lru", sections))
        cache = HandleList.restore(fresh, sections["cache"])
        assert next(iter(lru._lru)) == cache._refs[0] == h.slot
        assert cache[0] is cache[2] is fresh.get(5)
        assert cache[1] is not cache[0]

    @settings(max_examples=60, deadline=None)
    @given(slots=st.lists(st.integers(0, 49), max_size=3000))
    def test_a_slot_list_round_trips(self, slots):
        """A list of slots of any length comes back as it went, each
        item the one object its slot resolves to."""
        registry = HandleRegistry(PhysicalMemory(MiB(2)))
        registry.register_batch(list(range(50)), reclaimable=True)
        cache = HandleList(registry)
        cache.extend(registry.resolve(slot) for slot in slots)
        fresh, sections = _round_trip(registry, cache=cache.snapshot())
        back = HandleList.restore(fresh, sections["cache"])
        assert list(back._refs) == slots
        assert [h.slot for h in back] == slots
        assert all(h is fresh.resolve(h.slot) for h in back)


class TestHandleRegistry:
    def test_register_and_get(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        h = reg.register(*fields(pfn=10))
        assert reg.get(10) is h
        assert 10 in reg
        assert len(reg) == 1

    def test_duplicate_pfn_raises_typed(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        reg.register(*fields(pfn=10))
        with pytest.raises(DoubleAllocError):
            reg.register(*fields(pfn=10))

    def test_on_free_marks_and_removes(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        h = reg.register(*fields(pfn=10))
        reg.on_free(h)
        assert h.freed
        assert 10 not in reg

    def test_relocate_moves_key_and_pfn(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        h = reg.register(*fields(pfn=10))
        reg.relocate(10, 99)
        assert h.pfn == 99
        assert reg.get(99) is h
        assert 10 not in reg

    def test_relocating_an_unregistered_head_raises_and_changes_nothing(
            self):
        """A PFN that heads no registered allocation is a KeyError, as
        in :meth:`get`: its column entry is ``NO_HANDLE`` (-1), which
        would otherwise index the last slot and repoint it."""
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        h = reg.register(*fields(pfn=10))
        with pytest.raises(KeyError):
            reg.relocate(11, 99)
        assert h.pfn == 10 and reg.get(10) is h and 99 not in reg
        assert list(reg._slots) == [10]

    def test_live_handles(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        a = reg.register(*fields(pfn=1))
        b = reg.register(*fields(pfn=2))
        assert set(live_handles(reg)) == {a, b}


class TestPlacementPolicy:
    def test_default_bias_away_from_border(self):
        policy = PlacementPolicy()
        assert policy.direction(AllocSource.NETWORKING) == "high"
        assert policy.direction(AllocSource.SLAB) == "high"
        assert policy.direction(AllocSource.KERNEL_CODE) == "high"

    def test_pin_migrations_next_to_border(self):
        policy = PlacementPolicy()
        assert policy.direction(AllocSource.USER,
                                pin_migration=True) == "low"

    def test_disabled_returns_none(self):
        policy = PlacementPolicy(bias_enabled=False)
        assert policy.direction(AllocSource.NETWORKING) is None
        assert policy.direction(AllocSource.USER, pin_migration=True) is None
