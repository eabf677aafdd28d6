"""Free lists: intrusive array-backed lists vs the legacy reference.

Behavioural tests run against both representations; the differential
fuzzer (the transition's acceptance property) drives random op
sequences through both at once and demands identical pop orders and
lengths on every mode, including FIFO.
"""

import pickle
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FreelistDivergenceError
from repro.mm import AllocSource
from repro.mm.freelist import (
    _COMPACT_MIN,
    FreeList,
    FreelistStore,
)

from conftest import make_contiguitas
from legacy_freelist import LegacyFreeList

IMPLS = [FreeList, LegacyFreeList]


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
        """The normalisation both representations now share: a member
        discarded and re-added queues at its re-add position (the lazy
        legacy path used to revive the original position)."""
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
        store = FreelistStore(64)
        a, b = store.new_list(), store.new_list()
        a.add(3)
        b.add(5)
        assert 3 in a and 3 not in b
        with pytest.raises(FreelistDivergenceError):
            b.add(3)  # a frame lives on at most one list per store
        a.discard(3)
        b.add(3)
        assert 3 in b

    def test_standalone_store_grows_on_demand(self):
        fl = FreeList()
        fl.add(100_000)  # far past the default capacity
        assert 100_000 in fl
        assert fl.pop_lifo() == 100_000

    def test_extend_bulk_append(self):
        fl = FreeList()
        fl.add(999)
        fl.extend([5, 6, 7])
        assert list(fl) == [999, 5, 6, 7]
        assert [fl.pop_lifo() for _ in range(4)] == [7, 6, 5, 999]
        fl.check_invariants()

    def test_extend_rejects_linked_frames(self):
        store = FreelistStore(32)
        a, b = store.new_list(), store.new_list()
        a.add(4)
        with pytest.raises(FreelistDivergenceError):
            b.extend([3, 4, 5])

    def test_temporal_only_list_has_no_heap_bookkeeping(self):
        fl = FreeList()
        for i in range(1000):
            fl.add(i)
            fl.discard(i)
        assert fl._min_heap is None  # zero address-order overhead
        fl.add(1)
        assert fl.pop_lowest() == 1  # first address op builds heaps
        assert fl._min_heap == []  # emptied list keeps empty heaps

    def test_heap_staleness_bounded_under_churn(self):
        fl = FreeList()
        fl.add(0)
        fl.pop_lowest()  # enter address mode
        live_span = 512
        for i in range(40_000):
            fl.add(i % live_span)
            fl.discard((i * 7 + 3) % live_span)
        live = len(fl)
        slack = max(_COMPACT_MIN, live) + 1
        assert fl.stale_entries() <= 2 * slack
        fl.check_invariants()

    def test_check_invariants_catches_corruption(self):
        fl = FreeList()
        for pfn in [1, 2, 3]:
            fl.add(pfn)
        fl.check_invariants()
        fl._store.next_mv[1] = 3  # sever the chain behind the count
        with pytest.raises(FreelistDivergenceError):
            fl.check_invariants()


class TestAddressModeCost:
    """ISSUE 21: an address-mode list that empties keeps its (cleared)
    heaps, and building them walks the list, never the store."""

    @pytest.mark.parametrize("drop_heaps", [False, True],
                             ids=["heaps-kept", "heaps-none"])
    def test_empty_refill_cycles_pop_in_address_order(self, drop_heaps):
        rng = random.Random(5)
        fl = FreeList(FreelistStore(4096))
        for cycle in range(1000):
            pfns = rng.sample(range(4096), rng.randint(1, 12))
            for pfn in pfns:
                fl.add(pfn)
            if cycle == 500:
                # Mid-cycle, members linked: a checkpoint may also hold
                # a list whose heaps are None (written before this PR,
                # or after a large extend) — both must restore and pop.
                if drop_heaps:
                    fl._min_heap = fl._max_heap = None
                fl = pickle.loads(pickle.dumps(fl))
                assert (fl._min_heap is None) == drop_heaps
            if cycle % 2:
                assert [fl.pop_highest() for _ in pfns] == \
                    sorted(pfns, reverse=True)
            else:
                assert [fl.pop_lowest() for _ in pfns] == sorted(pfns)
            assert not fl and fl.stale_entries() == 0
            assert fl._min_heap == [] and fl._max_heap == []
            if cycle % 100 == 0:
                fl.check_invariants()
        fl.check_invariants()

    @staticmethod
    def _churn(mem_mib, monkeypatch):
        """5,000 order-0 NETWORKING alloc/free pairs, three pages in
        flight so the low-order lists keep emptying and refilling;
        returns (heap builds, full-memory scans seen)."""
        kernel = make_contiguitas(mem_mib)
        nframes = kernel.mem.nframes
        builds, scans = [], []
        build = FreeList._build_heaps
        monkeypatch.setattr(
            FreeList, "_build_heaps",
            lambda self: (builds.append(len(self)), build(self))[1])
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


class TestLegacy:
    def test_churn_keeps_structures_bounded(self):
        """Heavy add/discard churn must not leak stale heap/queue
        entries: internal structures stay within a constant factor of
        the live set."""
        fl = LegacyFreeList()
        live_span = 512
        for i in range(40_000):
            fl.add(i % live_span)
            fl.discard((i * 7 + 3) % live_span)
        live = len(fl)
        assert live <= live_span
        # Between compactions at most max(_COMPACT_MIN, live) removals
        # accumulate, each leaving one stale entry per structure.
        slack = max(_COMPACT_MIN, live) + 1
        assert len(fl._min_heap) <= live + slack
        assert len(fl._max_heap) <= live + slack
        assert len(fl._queue) <= live + slack
        assert fl.stale_entries() <= 3 * slack

    def test_compact_zeroes_stale_entries(self):
        """Regression (stale-accounting drift): a full rebuild used to
        keep both the first and last queue occurrence of a live member,
        leaving ``stale_entries() > 0`` immediately after ``_compact``.
        The rebuilt queue now holds exactly one live entry per member."""
        fl = LegacyFreeList()
        for pfn in range(2 * _COMPACT_MIN):
            fl.add(pfn)
        # Discard-then-re-add members so the queue accumulates
        # duplicate occurrences, then force the rebuild.
        for pfn in range(0, 2 * _COMPACT_MIN, 2):
            fl.discard(pfn)
            fl.add(pfn)
        fl._compact()
        assert fl.stale_entries() == 0
        fl.check_invariants()
        # And the rebuild preserved every pop mode's view.
        assert fl.pop_lifo() == 2 * _COMPACT_MIN - 2
        assert fl.pop_lowest() == 0
        assert list(fl)[0] == 1


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


#: op, pfn, k — op selects add/discard/pop_{lowest,highest,lifo}/
#: extend/pop_many_lifo; k sizes the bulk ops.
_FUZZ_OP = st.tuples(st.integers(0, 6), st.integers(0, 60),
                     st.integers(1, 8))


@settings(max_examples=300)
@given(st.lists(_FUZZ_OP, max_size=200))
def test_differential_fuzz_intrusive_vs_legacy(ops):
    """The transition's acceptance property: random op sequences drive
    the array-backed list and the legacy reference to identical pop
    orders, membership, and lengths — on every extraction mode."""
    new = FreeList()
    old = LegacyFreeList()
    for op, pfn, k in ops:
        if op == 0:
            new.add(pfn)
            old.add(pfn)
        elif op == 1:
            assert new.discard(pfn) == old.discard(pfn)
        elif op in (2, 3, 4):
            pop = ("pop_lowest", "pop_highest", "pop_lifo")[op - 2]
            if not old:
                with pytest.raises(KeyError):
                    getattr(new, pop)()
            else:
                assert getattr(new, pop)() == getattr(old, pop)()
        elif op == 5:
            fresh = [p for p in range(pfn, pfn + k) if p not in old]
            new.extend(fresh)
            old.extend(fresh)
        else:
            assert new.pop_many_lifo(k).tolist() == \
                old.pop_many_lifo(k).tolist()
        assert len(new) == len(old)
        assert (pfn in new) == (pfn in old)
    new.check_invariants()
    old.check_invariants()
    while old:
        assert new.pop_lowest() == old.pop_lowest()
    assert not new
