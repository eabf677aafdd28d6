"""The driver's hot data structures: the expiry calendar, the
dict-backed transient-buffer set and the proved-prefix cache prune.
They are host-side only, so the tests pin *behaviour*: the kernel-call
stream against goldens recorded before each change, the calendar
against a log of what was scheduled and released, and the prune against
the full-pass filter it replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import Counter, defaultdict

import pytest

from repro.faults import FaultPlan, FaultSpec, injecting
from repro.mm import vmstat as ev
from repro.workloads import Workload, get_service
from repro.workloads.fragmenter import fragment_partially
from call_recorder import TraceRecorder
from conftest import make_contiguitas, make_linux

SERVICES = ("web", "cache-a", "cache-b", "ci")
KERNELS = {"linux": make_linux, "contiguitas": make_contiguitas}
GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "driver_callstream.json")


#: Spec variants pinned beside the stock services: a bounded cache
#: (bounded-mode ``swap_pop`` eviction, one ``randrange`` per victim)
#: and a server whose churn runs out of memory mid-batch (the first
#: OutOfMemoryError ends that churn kind for the step).
VARIANTS = {
    "web+bounded/linux": ("web", "linux", {"cache_opportunistic": False}),
    "web+oom/contiguitas": ("web", "contiguitas", {
        "anon_fraction": 0.8, "cache_opportunistic": False,
        "cache_fraction": 0.1, "net_rate_per_gib": 3000.0}),
}


def callstream(spec, make_kernel, mem_mib: int = 64, steps: int = 60,
               seed: int = 11) -> tuple[str, Workload]:
    """sha256 of every kernel call the driver and the kalloc glue make —
    deploy, *steps* churn intervals, then a restart (``stop`` drains the
    expiry calendar in due order with one RNG draw per entry, so a
    reordered drain or a moved draw changes which allocations leak) —
    and the stopped workload."""
    recorder = TraceRecorder(make_kernel(mem_mib))
    workload = Workload(recorder, spec, seed=seed)
    workload.start()
    for _ in range(steps):
        workload.step()
    workload.stop()
    digest = hashlib.sha256()
    for event in recorder.events:
        digest.update(event.to_json().encode() + b"\n")
    return digest.hexdigest(), workload


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class TestCallStreamGolden:
    """``fixtures/driver_callstream.json``: the service cells were
    recorded under the dataclass expiry heap, list-backed ``transient``
    and full-pass prune; the variant cells under the tuple heap, before
    the calendar and the one-loop spawns.  A driver refactor that
    reorders one RNG draw or one kernel call fails here, in Tier-1, not
    only in the e2e ``sim_digest``.
    After a *deliberate* change to the driver's behaviour, replace the
    cell with the digest the failure prints."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("service", SERVICES)
    def test_stream_matches_the_recording(self, service, kernel):
        got, _ = callstream(get_service(service), KERNELS[kernel])
        assert got == load_golden()[f"{service}/{kernel}"], got

    @pytest.mark.parametrize("cell", sorted(VARIANTS))
    def test_variant_matches_the_recording(self, cell):
        service, kernel, changes = VARIANTS[cell]
        spec = dataclasses.replace(get_service(service), **changes)
        got, workload = callstream(spec, KERNELS[kernel])
        if "+oom/" in cell:
            assert workload.oom_events > 0
        assert got == load_golden()[cell], got


class ShadowWorkload(Workload):
    """Every prune is checked against the full-pass filter it replaced;
    ``branches`` counts which path produced the result (the proved
    prefix cut edits the list in place, the full pass rebinds it).

    The filter reads the list's raw items — a handle, or a registry
    slot, whose table value is its page's PFN while the page lives and
    the freed marker (< 0) once it is freed — so the check builds no
    handle and the prune under test still meets the unbuilt slots it
    meets in a real run."""

    def __init__(self, *args, branches: Counter, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.branches = branches

    def _prune_cache(self, reclaimed: int) -> None:
        before = self.cache_pages
        slots, built = self.kernel.handles._slots, self.kernel.handles._built
        unbuilt = len(slots) - len(built)
        want = [ref for ref in before._refs
                if not (slots[ref] < 0 if type(ref) is int else ref.freed)]
        super()._prune_cache(reclaimed)
        assert self.cache_pages._refs == want
        assert self._cache_frames == sum(
            1 if type(ref) is int else ref.nframes for ref in want)
        assert len(slots) - len(built) == unbuilt
        self.branches["prefix" if self.cache_pages is before else "full"] += 1


def shadow_run(kernel, spec, branches: Counter, steps: int = 120,
               seed: int = 11) -> ShadowWorkload:
    workload = ShadowWorkload(kernel, spec, seed=seed, branches=branches)
    workload.start()
    for _ in range(steps):
        workload.step()
    return workload


class TestShadowPrune:
    """The prefix cut must equal the old filter wherever it is taken,
    and both branches must actually run."""

    def test_prefix_cut_equals_the_full_pass_everywhere(self):
        branches: Counter = Counter()
        # A bounded cache that fits in memory never reclaims, so it never
        # prunes (the counters were read at construction): the bounded
        # servers here hold more cache than memory has room for.
        for service in SERVICES:
            for make_kernel in KERNELS.values():
                for changes in ({}, {"cache_opportunistic": False,
                                     "cache_fraction": 0.7}):
                    spec = dataclasses.replace(get_service(service),
                                               **changes)
                    shadow_run(make_kernel(64), spec, branches)
        # Every server prunes by prefix from its first prune on; the
        # bounded cache's shuffled list sometimes voids the proof.
        assert branches["prefix"] >= 32 and branches["full"] >= 4, branches

    @pytest.mark.parametrize("make_kernel", KERNELS.values(),
                             ids=sorted(KERNELS))
    def test_foreign_reclaimable_pages_force_the_full_pass(self, make_kernel):
        """A restarted server: the previous tenant's cache is older on
        the LRU, so reclaim takes *its* pages first and the counter's
        delta is not ours — no proof, full pass, same list."""
        kernel = make_kernel(64)
        spec = get_service("cache-b")
        fragment_partially(kernel, spec, steps=40, seed=5, cycles=1)
        branches: Counter = Counter()
        shadow_run(kernel, spec, branches, steps=80)
        assert branches["full"] >= 2, branches

    def test_under_the_uce_fault_plan(self):
        """``memory_failure`` migrates cache pages (the handle lives on
        at a new pfn); it must never look like a reclaim to the prune."""
        branches: Counter = Counter()
        plan = FaultPlan("uce-dense", (
            FaultSpec("mm.memory.uce", rate=0.25, max_fires=32),))
        with injecting(plan, seed=7):
            workload = shadow_run(make_linux(64), get_service("ci"), branches)
        stat = workload.kernel.stat
        assert stat[ev.MEMORY_FAILURE] >= 16 and stat[ev.MIGRATE_SUCCESS] >= 4
        assert branches["prefix"] >= 4, branches

    def test_a_reclaim_compaction_drop_voids_the_proof(self):
        """The one kernel path that frees a cache page without counting
        it in PAGES_RECLAIMED: a co-tenant's THP fault compacts, then
        drops the page cache out of a candidate 2 MiB range.  A dropped
        handle in mid-list next to a prefix that sums to the reclaim
        delta would survive a prefix-only prune; COMPACT_RUNS moving is
        what sends that prune down the full pass."""
        branches: Counter = Counter()
        kernel = make_linux(64)
        workload = shadow_run(kernel, get_service("cache-b"), branches,
                              steps=40)
        assert branches["prefix"] >= 1
        runs = kernel.stat[ev.COMPACT_RUNS]
        pages = workload.cache_pages
        for _ in range(64):
            if any(h.freed for h in list(pages)[len(pages) // 8:]):
                break
            huge = kernel.alloc_thp()
            if huge is not None:
                kernel.free_pages(huge)
        else:
            pytest.fail("no THP fault dropped a mid-list cache page")
        assert kernel.stat[ev.COMPACT_RUNS] > runs
        full_before = branches["full"]
        while branches["full"] == full_before:      # shadow-checked
            workload.step()
        assert not any(h.freed for h in workload.cache_pages)


class _LoggedBucket(list):
    """A calendar bucket that also records what is filed in it."""

    def __init__(self, filed: list) -> None:
        super().__init__()
        self.filed = filed

    def append(self, entry) -> None:
        self.filed.append(entry[1])
        super().append(entry)


class LoggedWorkload(Workload):
    """Records every payload filed in the calendar and every release."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.filed: list = []
        self.released: list = []
        self._expiries = defaultdict(lambda: _LoggedBucket(self.filed))

    def _release(self, kind, payload) -> None:
        self.released.append(payload)
        super()._release(kind, payload)


class TestExpiryCalendar:
    @pytest.mark.parametrize("make_kernel", KERNELS.values(),
                             ids=sorted(KERNELS))
    def test_buckets_lie_ahead_and_hold_exactly_the_live_deaths(
            self, make_kernel):
        """After every step each bucket is due after ``steps`` — so
        ``_expire``, which pops bucket ``steps`` only, misses no death
        — and the calendar holds exactly the payloads scheduled and not
        yet released, each once, none of them freed."""
        workload = LoggedWorkload(make_kernel(64), get_service("web"),
                                  seed=3)
        workload.start()
        for _ in range(120):
            workload.step()
            assert all(due > workload.steps for due in workload._expiries)
            pending = [payload for bucket in workload._expiries.values()
                       for _kind, payload in bucket]
            released = {id(p) for p in workload.released}
            assert len(released) == len(workload.released)
            assert sorted(map(id, pending)) == sorted(
                id(p) for p in workload.filed if id(p) not in released)
            assert not any(p.freed for p in pending)
        assert workload.released and pending
        kinds = {kind for bucket in workload._expiries.values()
                 for kind, _payload in bucket}
        assert kinds == {"net", "slab", "fs", "pin"}
        workload.stop(kernel_residue=0.0)
        assert not workload._expiries
        assert sorted(map(id, workload.released)) == sorted(
            map(id, workload.filed))
