"""Free lists: the fused allocator's intrusive lists beside the
reference model's.

The lists are rows of ``BuddyAllocator``'s table threaded through the
``free_next``/``free_prev``/``free_list_id`` columns of its memory; the
reference model (``reference_buddy``) keeps an insertion-ordered dict
per list.  Behavioural tests speak to one list of each through the same
small interface and demand the same answers; ``test_reference_buddy.py``
drives whole allocators against each other.
"""

import pickle
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FreelistDivergenceError
from repro.mm import (
    AllocSource,
    BuddyAllocator,
    MigrateType,
    PageblockTable,
    PhysicalMemory,
    VmStat,
)
from repro.mm.buddy import _COMPACT_MIN
from repro.units import MiB

from conftest import free_list, make_contiguitas
from reference_buddy import RefBuddy

MT = MigrateType.UNMOVABLE


def empty_allocator(mem_mib: int = 16) -> BuddyAllocator:
    """A LIFO allocator over *mem_mib* whose lists start empty."""
    mem = PhysicalMemory(MiB(mem_mib))
    return BuddyAllocator(mem, PageblockTable(mem), VmStat(), prefer="lifo")


class IntrusiveList:
    """The order-0 list of *mt* in a fused allocator, as a list."""

    def __init__(self, alloc: BuddyAllocator | None = None,
                 mt: MigrateType = MT) -> None:
        self.alloc = alloc or empty_allocator()
        self.mt, self.li = mt, int(mt)        # order 0: row == mt

    def __len__(self) -> int:
        return self.alloc._count[self.li]

    def __contains__(self, pfn: int) -> bool:
        return (self.alloc.mem.free_list_id_mv[pfn]
                == self.alloc._lid0 + self.li)

    def __iter__(self):
        return iter(free_list(self.alloc, 0, self.mt))

    def add(self, pfn: int) -> None:
        if pfn not in self:
            self.alloc._insert_free(pfn, 0, self.mt)

    def discard(self, pfn: int) -> bool:
        if pfn not in self:
            return False
        self.alloc._remove_free(pfn)
        return True

    def _pop(self, direction: str) -> int:
        if not self:
            raise KeyError("pop from an empty list")
        return self.alloc._take(0, self.mt, direction)

    def pop_lowest(self) -> int:
        return self._pop("low")

    def pop_highest(self) -> int:
        return self._pop("high")

    def pop_lifo(self) -> int:
        return self._pop("lifo")

    def pop_many_lifo(self, k: int) -> np.ndarray:
        return self.alloc.take_free_bulk(k, self.mt)

    @property
    def heaps(self):
        return self.alloc._min_heap[self.li], self.alloc._max_heap[self.li]

    def _compact(self) -> None:
        if self.heaps[0] is not None:
            self.alloc._build_heaps(self.li)

    def stale_entries(self) -> int:
        low, high = self.heaps
        return 0 if low is None else len(low) + len(high) - 2 * len(self)


class DictList:
    """The same list in the reference model: a dict used as a set."""

    def __init__(self) -> None:
        self.ref = RefBuddy([MT] * 8, 0, 0, "lifo", False)
        self.members = self.ref.lists[0, MT]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self.members

    def __iter__(self):
        return iter(list(self.members))

    def add(self, pfn: int) -> None:
        if pfn not in self:
            self.ref._insert(pfn, 0, MT)

    def discard(self, pfn: int) -> bool:
        if pfn not in self:
            return False
        self.ref._remove(pfn)
        return True

    def _pop(self, direction: str) -> int:
        if not self:
            raise KeyError("pop from an empty list")
        return self.ref._pop(0, MT, direction)

    def pop_lowest(self) -> int:
        return self._pop("low")

    def pop_highest(self) -> int:
        return self._pop("high")

    def pop_lifo(self) -> int:
        return self._pop("lifo")

    def pop_many_lifo(self, k: int) -> np.ndarray:
        return np.asarray([self.pop_lifo() for _ in range(min(k, len(self)))],
                          dtype=np.int64)

    def _compact(self) -> None:
        """Nothing to rebuild: the model keeps no heaps."""


IMPLS = [IntrusiveList, DictList]


@pytest.fixture(params=IMPLS, ids=["intrusive", "legacy"])
def make_list(request):
    return request.param


class TestBehaviour:
    def test_empty_behaviour(self, make_list):
        fl = make_list()
        assert len(fl) == 0
        assert not fl
        with pytest.raises(KeyError):
            fl.pop_lowest()
        with pytest.raises(KeyError):
            fl.pop_highest()

    def test_add_and_membership(self, make_list):
        fl = make_list()
        fl.add(10)
        fl.add(5)
        assert 10 in fl
        assert 5 in fl
        assert 7 not in fl
        assert len(fl) == 2

    def test_add_is_idempotent(self, make_list):
        fl = make_list()
        fl.add(3)
        fl.add(3)
        assert len(fl) == 1
        assert fl.pop_lowest() == 3
        assert len(fl) == 0

    def test_pop_lowest_order(self, make_list):
        fl = make_list()
        for pfn in [30, 10, 20]:
            fl.add(pfn)
        assert [fl.pop_lowest() for _ in range(3)] == [10, 20, 30]

    def test_pop_highest_order(self, make_list):
        fl = make_list()
        for pfn in [30, 10, 20]:
            fl.add(pfn)
        assert [fl.pop_highest() for _ in range(3)] == [30, 20, 10]

    def test_temporal_pops(self, make_list):
        fl = make_list()
        for pfn in [30, 10, 20]:
            fl.add(pfn)
        assert [fl.pop_lifo() for _ in range(3)] == [20, 10, 30]

    def test_discard_then_pop_skips_stale_entries(self, make_list):
        fl = make_list()
        for pfn in [1, 2, 3]:
            fl.add(pfn)
        fl.pop_highest()  # the intrusive list's heaps now hold 1 and 2
        assert fl.discard(1)
        assert not fl.discard(1)  # already gone
        assert fl.pop_lowest() == 2

    def test_readd_after_discard(self, make_list):
        fl = make_list()
        fl.add(7)
        fl.discard(7)
        fl.add(7)
        assert fl.pop_highest() == 7

    def test_readd_takes_fifo_position_from_readd(self, make_list):
        """A member discarded and re-added queues at its re-add
        position, in both representations."""
        fl = make_list()
        for pfn in [1, 2, 3]:
            fl.add(pfn)
        fl.discard(1)
        fl.add(1)
        assert [fl.pop_lifo() for _ in range(3)] == [1, 3, 2]

    def test_iteration_is_insertion_ordered(self, make_list):
        fl = make_list()
        for pfn in [9, 2, 5]:
            fl.add(pfn)
        fl.discard(2)
        fl.add(2)
        assert list(fl) == [9, 5, 2]

    def test_pop_many_matches_scalar_pops(self, make_list):
        a, b = make_list(), make_list()
        for pfn in [4, 9, 1, 7, 3]:
            a.add(pfn)
            b.add(pfn)
        assert a.pop_many_lifo(3).tolist() == [b.pop_lifo()
                                               for _ in range(3)]
        assert len(a) == len(b) == 2

    def test_churn_through_compaction_preserves_order(self, make_list):
        """Discarding past the compaction trigger must not disturb the
        address-ordered pop sequence."""
        fl = make_list()
        n = 4 * _COMPACT_MIN
        for pfn in range(n):
            fl.add(pfn)
        fl.add(n)
        fl.pop_highest()  # arm the intrusive list's heaps before churn
        for pfn in range(0, n, 2):  # force > _COMPACT_MIN removals
            fl.discard(pfn)
        assert [fl.pop_lowest() for _ in range(len(fl))] == \
            list(range(1, n, 2))


class TestIntrusive:
    def test_store_shared_across_lists(self):
        """Every list of an allocator links through one set of columns,
        and a frame sits on at most one of them."""
        alloc = empty_allocator()
        a = IntrusiveList(alloc, MigrateType.UNMOVABLE)
        b = IntrusiveList(alloc, MigrateType.MOVABLE)
        a.add(3)
        b.add(5)
        assert 3 in a and 3 not in b
        with pytest.raises(FreelistDivergenceError):
            b.add(3)
        a.discard(3)
        b.add(3)
        assert 3 in b

    def test_temporal_only_list_has_no_heap_bookkeeping(self):
        fl = IntrusiveList()
        for i in range(1000):
            fl.add(i)
            fl.discard(i)
        assert fl.heaps == (None, None)  # zero address-order overhead
        fl.add(1)
        assert fl.pop_lowest() == 1  # first address op builds heaps
        assert fl.heaps == ([], [])  # emptied list keeps empty heaps

    def test_heap_staleness_bounded_under_churn(self):
        fl = IntrusiveList()
        fl.add(0)
        fl.pop_lowest()  # enter address mode
        live_span = 512
        for i in range(40_000):
            fl.add(i % live_span)
            fl.discard((i * 7 + 3) % live_span)
        live = len(fl)
        slack = max(_COMPACT_MIN, live) + 1
        assert fl.stale_entries() <= 2 * slack
        fl.alloc.check_consistency()

    def test_check_invariants_catches_corruption(self):
        fl = IntrusiveList()
        for pfn in [1, 2, 3]:
            fl.add(pfn)
        fl.alloc.check_consistency()
        fl.alloc.mem.free_next_mv[1] = 3  # sever the chain behind the count
        with pytest.raises(FreelistDivergenceError):
            fl.alloc.check_consistency()


class TestAddressModeCost:
    """An address-mode list that empties keeps its (cleared) heaps, and
    building them walks the list, never the memory."""

    @pytest.mark.parametrize("drop_heaps", [False, True],
                             ids=["heaps-kept", "heaps-none"])
    def test_empty_refill_cycles_pop_in_address_order(self, drop_heaps):
        rng = random.Random(5)
        fl = IntrusiveList()
        for cycle in range(1000):
            pfns = rng.sample(range(4096), rng.randint(1, 12))
            for pfn in pfns:
                fl.add(pfn)
            if cycle == 500:
                # Mid-cycle, members linked: a checkpoint may also hold
                # a list whose heaps are None — both must restore and pop.
                if drop_heaps:
                    fl.alloc._min_heap[fl.li] = None
                    fl.alloc._max_heap[fl.li] = None
                fl.alloc = pickle.loads(pickle.dumps(fl.alloc))
                assert (fl.heaps[0] is None) == drop_heaps
            if cycle % 2:
                assert [fl.pop_highest() for _ in pfns] == \
                    sorted(pfns, reverse=True)
            else:
                assert [fl.pop_lowest() for _ in pfns] == sorted(pfns)
            assert not fl and fl.stale_entries() == 0
            assert fl.heaps == ([], [])
            if cycle % 100 == 0:
                fl.alloc.check_consistency()
        fl.alloc.check_consistency()

    @staticmethod
    def _churn(mem_mib, monkeypatch):
        """5,000 order-0 NETWORKING alloc/free pairs, three pages in
        flight so the low-order lists keep emptying and refilling;
        returns (heap builds, full-memory scans seen)."""
        kernel = make_contiguitas(mem_mib)
        nframes = kernel.mem.nframes
        builds, scans = [], []
        build = BuddyAllocator._build_heaps
        monkeypatch.setattr(
            BuddyAllocator, "_build_heaps",
            lambda self, li: (builds.append(li), build(self, li))[1])
        for name in ("flatnonzero", "nonzero"):
            def spy(a, *args, _real=getattr(np, name), _name=name, **kw):
                if np.size(a) >= nframes:
                    scans.append(_name)
                return _real(a, *args, **kw)
            monkeypatch.setattr(np, name, spy)
        live = deque()
        for _ in range(5000):
            live.append(kernel.alloc_pages(0, AllocSource.NETWORKING))
            if len(live) > 3:
                kernel.free_pages(live.popleft())
        kernel.check_consistency()
        return len(builds), scans

    def test_allocation_cost_is_independent_of_memory_size(self, monkeypatch):
        small = self._churn(64, monkeypatch)
        monkeypatch.undo()
        large = self._churn(512, monkeypatch)
        assert small == large
        assert small[1] == []  # no O(nframes) scan on any alloc/free
        assert small[0] <= 2 * 10 + 5000 // _COMPACT_MIN  # O(lists) + compactions


@settings(max_examples=150)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                max_size=120))
def test_compaction_is_behaviour_preserving(ops):
    """Property: forcing a rebuild after every operation never changes
    the pop sequences (address order and LIFO) on either
    representation."""
    for impl in IMPLS:
        plain = impl()
        compacted = impl()
        for op, pfn in ops:
            if op == 0:
                plain.add(pfn)
                compacted.add(pfn)
            elif op == 1:
                assert plain.discard(pfn) == compacted.discard(pfn)
            elif op == 2 and plain:
                assert plain.pop_lifo() == compacted.pop_lifo()
            elif op == 3 and plain:
                assert plain.pop_highest() == compacted.pop_highest()
            compacted._compact()
            assert len(plain) == len(compacted)
        while plain:
            assert plain.pop_lowest() == compacted.pop_lowest()
        assert not compacted


@settings(max_examples=200)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 100))))
def test_matches_reference_set(ops):
    """Property: both representations behave like a sorted set under
    add/discard."""
    for impl in IMPLS:
        fl = impl()
        ref: set[int] = set()
        for is_add, pfn in ops:
            if is_add:
                fl.add(pfn)
                ref.add(pfn)
            else:
                assert fl.discard(pfn) == (pfn in ref)
                ref.discard(pfn)
            assert len(fl) == len(ref)
            if ref:
                low, high = fl.pop_lowest(), max(ref)
                assert low == min(ref)
                fl.add(low)
                assert fl.pop_highest() == high
                fl.add(high)
        drained = []
        while fl:
            drained.append(fl.pop_lowest())
        assert drained == sorted(ref)
