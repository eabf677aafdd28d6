"""Handle registry lifecycle and the placement policy."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlacementPolicy
from repro.errors import DoubleAllocError
from repro.mm import AllocSource, HandleRegistry, MigrateType, PageHandle
from repro.mm.handle import HandleTable, refs_restore
from repro.mm.physmem import PhysicalMemory
from repro.units import MiB

from conftest import live_handles, through_envelope


def handle(pfn=0, order=0):
    return PageHandle(pfn, order, MigrateType.MOVABLE, AllocSource.USER, 0)


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


class TestPageHandleRecord:
    """What a checkpoint persists of a handle is one row of the handle
    table — six columns, the three flags packed into ``bits`` — written
    once however many holders name it."""

    @given(pfn=st.integers(0, 2**40), order=st.integers(0, 18),
           migratetype=st.sampled_from(MigrateType),
           source=st.sampled_from(AllocSource),
           birth=st.integers(0, 2**40), pinned=st.booleans(),
           freed=st.booleans(), reclaimable=st.booleans())
    def test_round_trip_keeps_all_eight_fields(
            self, pfn, order, migratetype, source, birth, pinned, freed,
            reclaimable):
        h = PageHandle(pfn, order, migratetype, source, birth,
                       pinned=pinned, reclaimable=reclaimable)
        h.freed = freed
        table = HandleTable()
        table.rows([h])
        (restored,) = HandleTable.restore(through_envelope(table.snapshot()))
        for clone in (restored, copy.copy(h)):
            assert clone is not h and type(clone) is PageHandle
            for name in PageHandle.__slots__:
                # Same type too: enum members and real bools, not 0/1.
                value, cloned = getattr(h, name), getattr(clone, name)
                assert cloned == value and type(cloned) is type(value), name

    def test_the_record_is_six_fields_wide(self):
        h = PageHandle(7, 2, MigrateType.UNMOVABLE, AllocSource.SLAB, 9,
                       pinned=True, reclaimable=True)
        table = HandleTable()
        table.rows([h])
        record = {name: column.tolist()
                  for name, column in table.snapshot().items()}
        assert record == {"pfn": [7], "order": [2],
                          "migratetype": [int(MigrateType.UNMOVABLE)],
                          "source": [int(AllocSource.SLAB)], "birth": [9],
                          "bits": [0b101]}
        assert HandleTable.restore(table.snapshot())[0].reclaimable

    def test_two_references_restore_to_one_object(self):
        h, other = handle(pfn=5), handle(pfn=6)
        table = HandleTable()
        assert table.rows([h, other, h]) == [0, 1, 0]
        registry, lru = table.refs([3, h]), table.rows([h])
        handles = HandleTable.restore(table.snapshot())
        assert len(handles) == 2
        restored = refs_restore(registry, handles)
        assert restored[0] == 3 and restored[1] is handles[lru[0]]


    @settings(max_examples=60, deadline=None)
    @given(layout=st.lists(st.tuples(st.booleans(), st.integers(1, 1500)),
                           max_size=6),
           value=st.integers(-2**40, 2**40))
    def test_a_list_of_ints_and_handles_round_trips(self, layout, value):
        """Runs of handles and ints, across the chunks the encoder
        packs in, come back in place: ints as they were, each handle
        as the one object its row restores to."""
        pool = [handle(pfn=p) for p in range(3)]
        values = []
        for is_handle, length in layout:
            values += ([pool[i % 3] for i in range(length)] if is_handle
                       else [value + i for i in range(length)])
        table = HandleTable()
        refs = table.refs(values)
        handles = HandleTable.restore(table.snapshot())
        back = refs_restore(through_envelope(refs), handles)
        assert len(back) == len(values) and len(handles) == len(
            {id(v) for v in values if type(v) is PageHandle})
        for was, now in zip(values, back):
            if type(was) is int:
                assert now == was and type(now) is int
            else:
                assert now is handles[table.rows([was])[0]]


class TestHandleRegistry:
    def test_register_and_get(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        h = reg.register(handle(pfn=10))
        assert reg.get(10) is h
        assert 10 in reg
        assert len(reg) == 1

    def test_duplicate_pfn_raises_typed(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        reg.register(handle(pfn=10))
        with pytest.raises(DoubleAllocError):
            reg.register(handle(pfn=10))

    def test_on_free_marks_and_removes(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        h = reg.register(handle(pfn=10))
        reg.on_free(h)
        assert h.freed
        assert 10 not in reg

    def test_relocate_moves_key_and_pfn(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        h = reg.register(handle(pfn=10))
        reg.relocate(10, 99)
        assert h.pfn == 99
        assert reg.get(99) is h
        assert 10 not in reg

    def test_live_handles(self):
        reg = HandleRegistry(PhysicalMemory(MiB(2)))
        a = reg.register(handle(pfn=1))
        b = reg.register(handle(pfn=2))
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
