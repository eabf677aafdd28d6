"""Reclaim frees a batch's pages in runs, named or not.

``ReclaimLRU.reclaim`` walks a batch's slots and hands each run of its
order-0, unpinned pages to ``LinuxKernel._free_unnamed`` in one call,
whether somebody named a page or not; only a pinned page goes through
``free_pages``.  The differential below runs every workload twice: once
as it is, and once with a driver that names every page of a bulk
allocation the moment it is allocated, so that reclaim only ever meets
built handles.  Reclaim must call ``free_pages`` for none of them, and
everything the simulation shows must be equal.
"""

from __future__ import annotations

import pytest

from repro.faults import NAMED_PLANS, FaultPlan, FaultSpec, injecting
from repro.mm import MigrateType
from repro.mm import vmstat as ev
from repro.mm.handle import BULK, HandleList
from repro.telemetry import tracing
from repro.telemetry.sinks import RingBufferSink
from repro.units import MAX_ORDER
from repro.workloads import Workload, get_service

from conftest import free_list, make_contiguitas, make_linux

SERVICES = ("web", "cache-a", "cache-b", "ci")
KERNELS = {"linux": make_linux, "contiguitas": make_contiguitas}
FRAME_COLUMNS = ("flags", "migratetype", "source", "free_order", "free_mt",
                 "alloc_order", "head_of", "birth")


class _NamingList(HandleList):
    def extend(self, handles) -> None:
        list(handles)       # a HandleBatch builds every handle here
        super().extend(handles)


class NamingWorkload(Workload):
    """Names every bulk page as soon as it is allocated (the driver's
    one bulk caller extends ``cache_pages`` with the batch)."""

    def __init__(self, kernel, spec, seed: int = 0) -> None:
        super().__init__(kernel, spec, seed=seed)
        self.cache_pages = _NamingList(kernel.handles)


def naming(kernel):
    """*kernel*, its registry recording in ``named`` every slot whose
    handle it builds from now on."""
    registry = kernel.handles
    registry.named = set()
    build, make = registry._build, registry._make

    def recording(slot):
        registry.named.add(slot)
        return build(slot)

    def recording_all(slots):
        registry.named.update(slots.tolist())
        return make(slots)

    registry._build, registry._make = recording, recording_all
    return kernel


def observe(workload_cls, make_kernel, service: str, steps: int = 120,
            plan: FaultPlan | None = None, **config) -> dict:
    """Run one server and return everything it can be compared by."""
    kernel = naming(make_kernel(64, debug_vm=True, **config))
    handed = free_pages_from_reclaim(kernel)
    with injecting(plan, seed=7), traced() as sink:
        workload = workload_cls(kernel, get_service(service), seed=11)
        workload.start()
        for _ in range(steps):
            workload.step()
    return {**state(kernel, sink), "reclaim_free_pages": len(handed)}


def free_pages_from_reclaim(kernel) -> list:
    """The handles *kernel*'s reclaim hands to ``free_pages`` from now
    on, in order."""
    handed = []
    reclaim = kernel.reclaim_lru.reclaim

    def counting(free_fn, free_run, target_frames):
        return reclaim(lambda handle: (handed.append(handle),
                                       free_fn(handle)),
                       free_run, target_frames)

    kernel.reclaim_lru.reclaim = counting
    return handed


def traced():
    return tracing("mm.buddy.free", "mm.reclaim.run",
                   sink=RingBufferSink(1 << 20))


def state(kernel, sink: RingBufferSink) -> dict:
    assert sink.dropped == 0
    mem = kernel.mem
    registry = kernel.handles
    return {
        "frames": {name: getattr(mem, name).tobytes()
                   for name in FRAME_COLUMNS},
        "free_lists": [free_list(alloc, order, mt)
                       for alloc in kernel.allocators()
                       for order in range(MAX_ORDER + 1)
                       for mt in MigrateType],
        "vmstat": kernel.stat.snapshot(),
        "trace": [event.to_json() for event in sink],
        "sanitizer": {pfn: tuple(hist)
                      for pfn, hist in mem.sanitizer._hist.items()},
        "offlined": kernel.offlined_frames(),
        "unnamed_frees": sum(
            v < 0 and info & BULK and slot not in registry.named
            for slot, (v, info) in enumerate(zip(registry._slots,
                                                 registry._info))),
    }


def assert_equal(named: dict, normal: dict) -> dict:
    assert named.pop("unnamed_frees") == 0
    unnamed = normal.pop("unnamed_frees")
    for key in named:
        assert normal[key] == named[key], key
    return {"unnamed_frees": unnamed, **normal}


def assert_equal_runs(make_kernel, service: str, **kwargs) -> dict:
    return assert_equal(
        observe(NamingWorkload, make_kernel, service, **kwargs),
        observe(Workload, make_kernel, service, **kwargs))


@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_unnamed_reclaim_equals_named_reclaim(kernel, service):
    run = assert_equal_runs(KERNELS[kernel], service)
    assert run["unnamed_frees"] > 100
    assert run["vmstat"][ev.PAGES_RECLAIMED] > 100
    assert run["reclaim_free_pages"] == 0


def test_under_the_uce_plan():
    """The plan the ``uce-degrade`` scenario runs (it first fires
    within 300 steps at this seed)."""
    run = assert_equal_runs(make_linux, "web", steps=300,
                            plan=NAMED_PLANS["uce"])
    assert run["vmstat"][ev.MEMORY_FAILURE] >= 1 and run["unnamed_frees"]


@pytest.mark.parametrize("make_kernel", KERNELS.values(), ids=sorted(KERNELS))
def test_a_deferred_offline_frame_is_offlined_right_after_its_page(
        make_kernel):
    """Every migration fails, so a UCE on a cache page poisons it in
    place and defers its offline to the free — here in the middle of a
    run of unnamed pages, which is then freed page by page."""
    runs = []
    for name in (True, False):
        kernel = naming(make_kernel(64, debug_vm=True))
        batch = kernel.alloc_pages_bulk(3000, reclaimable=True)
        pfns = kernel.handles._slots[batch.start:batch.stop].tolist()
        if name:
            list(batch)
        with injecting(FaultPlan("pinned-everywhere", (
                FaultSpec("mm.migrate.busy", rate=1.0),)), seed=0):
            assert not any(kernel.memory_failure(pfn)
                           for pfn in pfns[100:2000:150])
        with traced() as sink:
            assert kernel.reclaim(len(batch)) == len(batch)
        runs.append(state(kernel, sink))
    run = assert_equal(*runs)
    assert run["offlined"] == 13 and run["unnamed_frees"] == len(batch)


def test_with_per_cpu_lists():
    """PCP routes order-0 frees, and a bulk allocation steps aside for
    it: nothing is left unnamed, and nothing may differ."""
    run = assert_equal_runs(make_contiguitas, "web", pcp_enabled=True)
    assert run["unnamed_frees"] == 0


def test_a_run_is_cut_where_a_named_page_changed_allocators():
    """A page pinned into the unmovable region and unpinned there is
    still its batch's: reclaim frees it in slot order, by the allocator
    now holding it, between the two pieces of the movable run."""
    kernel = make_contiguitas(64, debug_vm=True)
    batch = kernel.alloc_pages_bulk(512, reclaimable=True)
    pfns = kernel.handles._slots[batch.start:batch.stop].tolist()
    moved = batch[10]
    kernel.pin_pages(moved)
    kernel.unpin_pages(moved)
    assert kernel.allocator_for(moved.pfn) is kernel.unmovable
    runs = []
    for alloc in kernel.allocators():
        def spy(run, label=alloc.label, free_run=alloc.free_run):
            runs.append((label, list(run)))
            free_run(run)
        alloc.free_run = spy
    assert kernel.reclaim(len(batch)) == len(batch)
    assert runs == [("movable", pfns[:10]), ("unmovable", [moved.pfn]),
                    ("movable", pfns[11:])]
    assert moved.freed
    kernel.check_consistency()
