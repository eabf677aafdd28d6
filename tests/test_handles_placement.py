"""Handle registry lifecycle and the placement policy."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PlacementPolicy
from repro.errors import DoubleAllocError
from repro.mm import AllocSource, HandleRegistry, MigrateType, PageHandle

from conftest import live_handles


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
    """What a checkpoint persists of a handle is the six-field tuple
    ``__reduce__`` returns, not the class's slots."""

    @given(pfn=st.integers(0, 2**40), order=st.integers(0, 18),
           migratetype=st.sampled_from(MigrateType),
           source=st.sampled_from(AllocSource),
           birth=st.integers(0, 2**40), pinned=st.booleans(),
           freed=st.booleans(), reclaimable=st.booleans(),
           protocol=st.integers(0, pickle.HIGHEST_PROTOCOL))
    def test_round_trip_keeps_all_eight_fields(
            self, pfn, order, migratetype, source, birth, pinned, freed,
            reclaimable, protocol):
        h = PageHandle(pfn, order, migratetype, source, birth,
                       pinned=pinned, reclaimable=reclaimable)
        h.freed = freed
        for clone in (pickle.loads(pickle.dumps(h, protocol)), copy.copy(h)):
            assert clone is not h and type(clone) is PageHandle
            for name in PageHandle.__slots__:
                # Same type too: enum members and real bools, not 0/1.
                value, cloned = getattr(h, name), getattr(clone, name)
                assert cloned == value and type(cloned) is type(value), name

    def test_the_record_is_six_fields_wide(self):
        h = PageHandle(7, 2, MigrateType.UNMOVABLE, AllocSource.SLAB, 9,
                       pinned=True, reclaimable=True)
        restore, record = h.__reduce__()
        assert record == (7, 2, MigrateType.UNMOVABLE, AllocSource.SLAB, 9,
                          0b101)
        assert restore(*record).reclaimable

    def test_two_references_unpickle_to_one_object(self):
        h = handle(pfn=5)
        payload = {"registry": {5: h}, "lru": [h], "transient": {h: None}}
        out = pickle.loads(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        assert out["registry"][5] is out["lru"][0]
        assert list(out["transient"]) == [out["lru"][0]]


class TestHandleRegistry:
    def test_register_and_get(self):
        reg = HandleRegistry()
        h = reg.register(handle(pfn=10))
        assert reg.get(10) is h
        assert 10 in reg
        assert len(reg) == 1

    def test_duplicate_pfn_raises_typed(self):
        reg = HandleRegistry()
        reg.register(handle(pfn=10))
        with pytest.raises(DoubleAllocError):
            reg.register(handle(pfn=10))

    def test_on_free_marks_and_removes(self):
        reg = HandleRegistry()
        h = reg.register(handle(pfn=10))
        reg.on_free(h)
        assert h.freed
        assert 10 not in reg

    def test_relocate_moves_key_and_pfn(self):
        reg = HandleRegistry()
        h = reg.register(handle(pfn=10))
        reg.relocate(10, 99)
        assert h.pfn == 99
        assert reg.get(99) is h
        assert 10 not in reg

    def test_live_handles(self):
        reg = HandleRegistry()
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
