"""Slot-backed handles (ISSUE 19): a bulk allocation registers slots and
a ``PageHandle`` exists only once somebody names the page.

No stopwatch here.  The equivalence is held by a differential against
the eager structures this replaced (one handle, one registry entry and
one ``OrderedDict`` node per page, kept in this file), the gain by an
exact count of handles built on the benchmark's fleet server.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import random
import weakref
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.runstate import restore_kernel
from repro.errors import DoubleAllocError, SanitizerError
from repro.fleet import ServerConfig, SimulatedServer
from repro.mm import LinuxKernel, ReclaimLRU, VmStat
from repro.mm.handle import (
    HandleBatch,
    HandleList,
    HandleRegistry,
    PageHandle,
)
from repro.mm.page import AllocSource, MigrateType
from repro.units import MiB
from repro.workloads import Workload, get_service

from conftest import live_handles, make_contiguitas, make_linux

NPFNS = 96


def fields(handle: PageHandle) -> tuple:
    return tuple(getattr(handle, name) for name in PageHandle.__slots__)


class Eager:
    """The structures the slots replaced, as plainly as they can be
    written: every page gets its handle at allocation time."""

    def __init__(self) -> None:
        self.by_pfn: dict[int, PageHandle] = {}
        self.lru: OrderedDict[PageHandle, None] = OrderedDict()

    def register(self, handle: PageHandle) -> PageHandle:
        if handle.pfn in self.by_pfn:
            raise DoubleAllocError("duplicate", pfn=handle.pfn)
        self.by_pfn[handle.pfn] = handle
        if handle.reclaimable:
            self.lru[handle] = None
        return handle

    def register_batch(self, pfns, mt, source, birth, reclaimable) -> list:
        if any(pfn in self.by_pfn for pfn in pfns):
            raise DoubleAllocError("duplicate")
        return [self.register(PageHandle(pfn, 0, mt, source, birth, False,
                                         reclaimable)) for pfn in pfns]

    def free(self, handle: PageHandle) -> None:
        self.lru.pop(handle, None)
        del self.by_pfn[handle.pfn]
        handle.freed = True

    def relocate(self, old: int, new: int) -> PageHandle:
        handle = self.by_pfn.pop(old)
        handle.pfn = new
        self.by_pfn[new] = handle
        return handle

    def reclaim(self, target: int) -> list[int]:
        victims = []
        freed = 0
        while freed < target and self.lru:
            handle, _ = self.lru.popitem(last=False)
            freed += handle.nframes
            victims.append(handle.pfn)
            self.free(handle)
        return victims


class Lazy:
    """The real registry and LRU, freed the way ``free_pages`` does."""

    def __init__(self) -> None:
        self.registry = HandleRegistry()
        self.lru = ReclaimLRU(VmStat())

    def register(self, handle: PageHandle) -> PageHandle:
        self.registry.register(handle)
        if handle.reclaimable:
            self.lru.register(handle)
        return handle

    def register_batch(self, pfns, mt, source, birth,
                       reclaimable) -> HandleBatch:
        batch = self.registry.register_batch(
            pfns, mt, source, birth, reclaimable)
        if reclaimable:
            self.lru.register_batch(batch)
        return batch

    def free(self, handle: PageHandle) -> None:
        self.lru.forget(handle)
        self.registry.on_free(handle)

    def reclaim(self, target: int) -> list[int]:
        """The PFNs freed, in order: a pinned victim through ``free``,
        a run of the others as the registry already dropped them."""
        victims = []

        def free_fn(handle: PageHandle) -> None:
            victims.append(handle.pfn)
            self.free(handle)

        self.lru.reclaim(free_fn, victims.extend, target)
        return victims


OPS = st.lists(st.tuples(
    st.sampled_from(["bulk", "bulk-dup", "scalar", "get", "relocate",
                     "free", "reclaim", "index", "slice", "iterate",
                     "cache-pop", "cache-prune"]),
    st.integers(0, 10_000), st.integers(0, 10_000)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_slots_match_the_eager_structures(ops):
    """Same handle fields, same reclaim order, same ``len``s, same
    ``DoubleAllocError`` — whatever builds a handle, and whenever."""
    eager, lazy = Eager(), Lazy()
    batches: list[tuple[list, HandleBatch]] = []
    # The driver's ``cache_pages`` beside the plain list it used to be.
    cache_eager: list[PageHandle] = []
    cache_lazy = HandleList(lazy.registry)
    now = 0
    for op, a, b in ops:
        now += 1
        free_pfns = [p for p in range(NPFNS) if p not in eager.by_pfn]
        live_pfns = sorted(eager.by_pfn)
        if op == "bulk" and free_pfns:
            pfns = free_pfns[a % len(free_pfns):][:1 + b % 12]
            args = (pfns, MigrateType.MOVABLE, AllocSource.USER, now,
                    a % 3 > 0)
            batches.append((eager.register_batch(*args),
                            lazy.register_batch(*args)))
            cache_eager.extend(batches[-1][0])
            cache_lazy.extend(batches[-1][1])
        elif op == "bulk-dup" and live_pfns and free_pfns:
            pfns = free_pfns[:2] + [live_pfns[a % len(live_pfns)]]
            for side in (eager, lazy):
                with pytest.raises(DoubleAllocError):
                    side.register_batch(pfns, MigrateType.MOVABLE,
                                        AllocSource.USER, now, True)
        elif op == "scalar" and free_pfns:
            args = (free_pfns[a % len(free_pfns)], b % 3,
                    MigrateType.UNMOVABLE, AllocSource.SLAB, now, False,
                    b % 2 == 0)
            cache_eager.append(eager.register(PageHandle(*args)))
            cache_lazy.append(lazy.register(PageHandle(*args)))
        elif op == "get" and live_pfns:
            pfn = live_pfns[a % len(live_pfns)]
            assert fields(lazy.registry.get(pfn)) == fields(eager.by_pfn[pfn])
        elif op == "relocate" and live_pfns and free_pfns:
            old = live_pfns[a % len(live_pfns)]
            new = free_pfns[b % len(free_pfns)]
            assert (fields(lazy.registry.relocate(old, new))
                    == fields(eager.relocate(old, new)))
        elif op == "free" and live_pfns:
            pfn = live_pfns[a % len(live_pfns)]
            eager.free(eager.by_pfn[pfn])
            lazy.free(lazy.registry.get(pfn))
        elif op == "reclaim":
            assert lazy.reclaim(1 + a % 9) == eager.reclaim(1 + a % 9)
        elif op in ("index", "slice", "iterate") and batches:
            want, got = batches[a % len(batches)]
            if op == "index":
                i = b % (2 * len(want)) - len(want)
                want, got = [want[i]], [got[i]]
            elif op == "slice":
                cut = slice(b % (len(want) + 1), None, 1 + a % 2)
                want, got = want[cut], got[cut]
            assert [fields(h) for h in got] == [fields(h) for h in want]
        elif op == "cache-pop" and cache_eager:
            # Bounded mode's eviction: swap with the last, pop.
            i = a % len(cache_eager)
            cache_eager[i], cache_eager[-1] = cache_eager[-1], cache_eager[i]
            assert (fields(cache_lazy.swap_pop(i))
                    == fields(cache_eager.pop()))
        elif op == "cache-prune":
            k = 0
            while k < len(cache_eager) and cache_eager[k].freed:
                k += 1
            assert (cache_lazy.cut_freed_prefix()
                    == sum(h.nframes for h in cache_eager[:k]))
            del cache_eager[:k]
            if a % 2:
                cache_eager = [h for h in cache_eager if not h.freed]
                cache_lazy = cache_lazy.live()
            assert cache_lazy.frames() == sum(h.nframes for h in cache_eager)
        assert len(lazy.registry) == len(eager.by_pfn)
        assert len(lazy.lru) == len(eager.lru)
        assert len(cache_lazy) == len(cache_eager)
        assert all((p in lazy.registry) == (p in eager.by_pfn)
                   for p in range(0, NPFNS, 7))
    lazy.registry.check_invariants(_Orders(eager.by_pfn))
    assert ([fields(h) for h in cache_lazy]
            == [fields(h) for h in cache_eager])
    assert (sorted(map(fields, live_handles(lazy.registry)))
            == sorted(map(fields, eager.by_pfn.values())))
    assert lazy.reclaim(NPFNS * 4) == eager.reclaim(NPFNS * 4)
    assert len(lazy.lru) == len(eager.lru) == 0


class _Orders:
    """``mem.alloc_order_mv`` as the eager registry implies it."""

    def __init__(self, by_pfn: dict) -> None:
        self.alloc_order_mv = {pfn: h.order for pfn, h in by_pfn.items()}


def _one_object(registry, batch, cache, i: int) -> PageHandle:
    handle = batch[i]
    assert handle is cache[i]
    assert handle is batch[i:i + 1][0] is list(batch)[i] is list(cache)[i]
    if handle.freed:
        assert handle.pfn not in registry
    else:
        assert handle is registry.get(handle.pfn)
    return handle


def test_every_route_to_a_page_reaches_one_object_across_a_pickle():
    registry = HandleRegistry()
    lru = ReclaimLRU(VmStat())
    batch = registry.register_batch(
        list(range(40, 60)), MigrateType.MOVABLE, AllocSource.USER, 5, True)
    lru.register_batch(batch)
    cache = HandleList(registry)
    cache.extend(batch)
    runs: list[list[int]] = []
    lru.reclaim(pytest.fail, runs.append, 2)
    # Reclaim freed slots 0 and 1 without naming them: the registry
    # dropped both and left the marker, and a handle is built, freed,
    # when read.
    assert runs == [[40, 41]] and registry._slots[:3] == [~40, ~41, 42]
    assert len(registry) == 18 and 40 not in registry
    first = batch[0]
    assert (first.pfn, first.freed, first.birth) == (40, True, 5)
    early = batch[3]

    registry, lru, batch, cache, first, early = pickle.loads(pickle.dumps(
        (registry, lru, batch, cache, first, early), pickle.HIGHEST_PROTOCOL))
    assert first is _one_object(registry, batch, cache, 0)  # built before
    assert early is _one_object(registry, batch, cache, 3)
    second = _one_object(registry, batch, cache, 1)         # built after
    assert (second.pfn, second.freed) == (41, True)
    late = _one_object(registry, batch, cache, 7)
    assert (late.pfn, late.birth, late.reclaimable) == (47, 5, True)
    # Every slot is built now (``list(batch)`` above); reclaim frees a
    # named page in the run all the same.
    runs.clear()
    lru.reclaim(pytest.fail, runs.append, 1)
    assert runs == [[42]] and len(lru) == 17
    assert batch[2].freed and 42 not in registry


def test_a_pinned_victim_ends_the_run_before_it():
    """A named page joins the run at its current PFN, as a page nobody
    named does; a pinned one goes to ``free_fn`` after the run (a batch
    page is order 0, so pinning is the one thing that sends it there)."""
    registry = HandleRegistry()
    lru = ReclaimLRU(VmStat())
    batch = registry.register_batch(
        list(range(8)), MigrateType.MOVABLE, AllocSource.USER, 1, True)
    lru.register_batch(batch)
    named, moved, pinned = batch[1], batch[2], batch[4]
    registry.relocate(2, 20)
    pinned.pinned = True
    calls: list = []
    assert lru.reclaim(calls.append,
                       lambda run: calls.append(list(run)), 6) == 6
    assert calls == [[0, 1, 20, 3], pinned, [5]] and len(lru) == 2
    assert registry._slots[:7] == [~0, named, moved, ~3, pinned, ~5, 6]
    assert named.freed and moved.freed and not pinned.freed
    assert [p for p in (1, 20, 4) if p in registry] == [4]


@pytest.mark.parametrize("make_kernel", [make_linux, make_contiguitas],
                         ids=["linux", "contiguitas"])
def test_skipping_forget_for_unreclaimable_handles_keeps_the_lru_count(
        make_kernel):
    """``free_pages`` no longer calls ``ReclaimLRU.forget`` for a handle
    that was never reclaimable (ISSUE 21).  The twin below still does,
    as every kernel did before; through mixed scalar/bulk allocations,
    frees and reclaim both must count the same pages on the LRU."""
    class Forgetful(type(make_kernel())):
        def free_pages(self, handle):
            if not handle.reclaimable and not handle.freed:
                self.reclaim_lru.forget(handle)
            super().free_pages(handle)

    rng = random.Random(21)
    kernel, twin = make_kernel(64), Forgetful(make_kernel(64).config)
    live: tuple[list, list] = ([], [])
    for step in range(600):
        op, order = rng.randrange(6), rng.randrange(2)
        index = rng.randrange(1 << 30)
        for k, mine in zip((kernel, twin), live):
            if op == 0:
                mine.extend(k.alloc_pages_bulk(16, reclaimable=True))
            elif op == 1:
                mine.extend(k.alloc_pages_bulk(8))
            elif op == 2:
                mine.append(k.alloc_pages(0, reclaimable=True))
            elif op == 3:
                mine.append(k.alloc_pages(order, AllocSource.SLAB))
            elif op == 4 and mine:
                handle = mine.pop(index % len(mine))
                if not handle.freed:
                    k.free_pages(handle)
            elif op == 5:
                k.reclaim(1 + index % 24)
        assert len(kernel.reclaim_lru) == len(twin.reclaim_lru)
        assert len(kernel.handles) == len(twin.handles)
    assert kernel.stat.snapshot() == twin.stat.snapshot()
    kernel.check_consistency()


@pytest.fixture
def built(monkeypatch) -> list[int]:
    """PFNs of every ``PageHandle`` constructed while the fixture is on."""
    pfns: list[int] = []
    init = PageHandle.__init__

    def counting(self, pfn, *args, **kwargs):
        pfns.append(pfn)
        init(self, pfn, *args, **kwargs)

    monkeypatch.setattr(PageHandle, "__init__", counting)
    return pfns


def test_a_bulk_allocation_constructs_no_handle_until_one_is_read(built):
    kernel = make_linux(64)
    batch = kernel.alloc_pages_bulk(512, reclaimable=True)
    assert type(batch) is HandleBatch and isinstance(batch[0:0], list)
    assert len(batch) == 512 and batch and len(kernel.reclaim_lru) == 512
    assert len(kernel.handles) == 512 and built == []
    third = batch[3]
    assert built == [third.pfn] and batch[3] is third and batch[-509] is third
    assert list(batch)[3] is third and len(built) == 512
    assert list(batch) == list(batch) and len(built) == 512
    with pytest.raises(IndexError):
        batch[512]


def test_the_fleet_server_builds_a_twentieth_of_its_bulk_pages_at_most():
    """The count ISSUE 19 named beforehand, on the benchmark's server:
    64 MiB, bounded cache, 60 steps, seed 11.  Built ÷ bulk slots was
    1.0 before (one handle per page in ``alloc_pages_bulk``) and is
    363 / 7,877 = 0.046 now: a handle is built for a page only when
    compaction or the driver's bounded-cache eviction names it."""
    kernels = []

    def boot(config):
        kernels.append(LinuxKernel(config))
        return kernels[-1]

    SimulatedServer(ServerConfig(
        mem_bytes=MiB(64), min_uptime_steps=60, max_uptime_steps=60,
        kernel_cls=boot), seed=11).run()
    slots = kernels[0].handles._slots
    assert len(slots) > 4000
    assert sum(type(v) is PageHandle for v in slots) / len(slots) <= 0.05


def test_reclaim_names_no_page():
    """A 300-step 256 MiB ``web`` server on Linux: reclaim frees 6,774
    bulk pages, which built a handle each (21 % of the slot table)
    until reclaim stopped naming its victims; now none is built."""
    kernel = make_linux(256, debug_vm=False)
    workload = Workload(kernel, get_service("web"), seed=11)
    workload.start()
    for _ in range(300):
        workload.step()
    slots = kernel.handles._slots
    assert sum(type(v) is int and v < 0 for v in slots) == 6774
    assert not any(type(v) is PageHandle for v in slots)


@pytest.mark.parametrize("make_kernel", [make_linux, make_contiguitas],
                         ids=["linux", "contiguitas"])
def test_a_dead_kernel_dies_by_refcount(make_kernel):
    """Nothing about a finished server waits for the cyclic collector —
    with far fewer tracked objects allocated per server it would
    otherwise run less often and the dead frame columns, free-list links
    included (2.6 MiB at 256 MiB), would pile up."""
    gc.collect()
    gc.disable()
    try:
        kernel = make_kernel(64)
        workload = Workload(kernel, get_service("web"), seed=3)
        workload.start()
        for _ in range(5):
            workload.step()
        mem = weakref.ref(kernel.mem)
        del kernel, workload
        assert mem() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestRestoreSweep:
    """``restore_kernel`` checks the handle registry against the frame
    arrays (typed raise, alive under ``-O``)."""

    @staticmethod
    def _unpickled():
        """A kernel whose slot table holds all three kinds of slot:
        live unbuilt, built (bounded-mode evictions) and freed-marker
        (the reclaim at the end)."""
        kernel = make_linux(64)
        spec = dataclasses.replace(get_service("web"),
                                   cache_opportunistic=False)
        workload = Workload(kernel, spec, seed=11)
        workload.start()
        for _ in range(20):
            workload.step()
        assert kernel.reclaim(512) == 512
        return pickle.loads(pickle.dumps(kernel, pickle.HIGHEST_PROTOCOL))

    @staticmethod
    def _live_unbuilt_slot(kernel) -> int:
        return next(i for i, v in enumerate(kernel.handles._slots)
                    if type(v) is int and v >= 0)

    def test_a_clean_kernel_passes(self):
        kernel = self._unpickled()
        kinds = {"built" if type(v) is not int else "live" if v >= 0
                 else "freed" for v in kernel.handles._slots}
        assert kinds == {"built", "live", "freed"}
        restore_kernel(kernel)

    def test_a_corrupted_slot_pfn_is_refused(self):
        kernel = self._unpickled()
        kernel.handles._slots[self._live_unbuilt_slot(kernel)] += 1
        with pytest.raises(SanitizerError, match="handle registry"):
            restore_kernel(kernel)

    def test_a_live_slot_flipped_to_the_freed_marker_is_refused(self):
        kernel = self._unpickled()
        slots = kernel.handles._slots
        slot = self._live_unbuilt_slot(kernel)
        slots[slot] = ~slots[slot]
        with pytest.raises(SanitizerError, match="handle registry"):
            restore_kernel(kernel)

    def test_a_built_handle_off_its_key_is_refused(self):
        kernel = self._unpickled()
        handle = kernel.handles.resolve(self._live_unbuilt_slot(kernel))
        handle.pfn += 1
        with pytest.raises(SanitizerError, match="handle registry"):
            restore_kernel(kernel)

    def test_an_allocation_nobody_owns_is_refused(self):
        kernel = self._unpickled()
        kernel.handles.on_free(kernel.alloc_pages(0))
        with pytest.raises(SanitizerError, match="allocation heads"):
            restore_kernel(kernel)
