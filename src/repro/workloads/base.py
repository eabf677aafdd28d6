"""Workload driver: allocation behaviour of a datacenter service.

A :class:`Workload` exercises a simulated kernel the way a containerised
Meta service exercises Linux (paper §4): it maps an anonymous heap (THP
where possible, 1 GiB HugeTLB if the service supports it), fills page
cache, brings up networking queues, and then churns — transient network
buffers, slab objects, filesystem bursts, pinned zero-copy buffers — each
with its own lifetime distribution.

The churn rates are *fractions of memory per unit time*, so the same spec
scales from 64 MiB test machines to multi-GiB benchmark machines.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..errors import ContiguityError, OutOfMemoryError, SimInvariantError
from ..mm import vmstat as ev
from ..kalloc.netbuf import NetworkBufferPool, NetworkQueueConfig
from ..kalloc.pagetable import PageTableAllocator
from ..kalloc.slab import SlabAllocator
from ..mm.handle import HandleList, PageHandle
from ..mm.page import AllocSource, MigrateType
from ..mm.sections import (
    int64,
    nest,
    rng_state,
    rows_of,
    scope,
    set_rng_state,
)
from .tracespec import TraceSpec
from ..telemetry import tracepoint
from ..units import GIGAPAGE_FRAMES, PAGEBLOCK_FRAMES

# One event per churn interval — the anchor for correlating kernel-side
# trace streams (steals, compaction) with workload phase.
_tp_step = tracepoint("workload.step")

#: Kernel ticks (µs) one churn interval advances the clock.
STEP_TICKS = 1000

#: Expiry-calendar entry kinds.  An entry is one int, ``ref << 2 |
#: kind``: the ref a registry slot, or (``_SLAB``) a key of the driver's
#: slab-object table.
_NET, _SLAB, _FS, _PIN = range(4)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one service's memory behaviour.

    Footprints are fractions of machine memory; rates are events per step
    per GiB of machine memory (so churn intensity scales with machine
    size); lifetimes are in steps.
    """

    name: str
    anon_fraction: float = 0.5
    cache_fraction: float = 0.2
    wants_1g: bool = False
    #: Number of 1 GiB pages the service tries to reserve when supported.
    gigapages_wanted: int = 4

    net_rings_frames_per_gib: int = 2048
    net_rate_per_gib: float = 40.0
    net_lifetime_steps: float = 30.0
    #: Buddy orders of transient buffers (jumbo frames / GRO need
    #: multi-page buffers).  Order diversity is what strands free space
    #: inside the unmovable region: scattered order-0 holes cannot serve
    #: order-2 requests (§5.2's internal fragmentation).
    net_buffer_orders: tuple = (0, 0, 0, 1, 1, 2)
    #: Fraction of transient buffers that are long-lived (socket buffers
    #: parked on slow connections) — the stragglers that scatter.
    net_straggler_fraction: float = 0.25
    net_straggler_lifetime_steps: float = 1200.0

    slab_rate_per_gib: float = 25.0
    slab_lifetime_steps: float = 150.0
    fs_rate_per_gib: float = 8.0
    fs_lifetime_steps: float = 4.0
    fs_straggler_fraction: float = 0.2
    fs_straggler_lifetime_steps: float = 600.0
    pin_rate_per_gib: float = 0.5
    pin_lifetime_steps: float = 200.0
    pagetable_rate_per_gib: float = 4.0
    pagetable_lifetime_steps: float = 300.0
    #: Diurnal traffic modulation: kernel-side churn rates swing by this
    #: amplitude over one period.  Peaks grow the unmovable footprint;
    #: troughs free pages that stragglers keep trapped — the §5.2
    #: internal fragmentation of the unmovable region.
    diurnal_amplitude: float = 0.5
    diurnal_period_steps: int = 500
    #: Per-step page-cache refill rate (file-read batches), per GiB.
    cache_churn_per_gib: float = 100.0
    #: Buddy order of one readahead batch (4 KiB pages read together).
    cache_batch_order: int = 2
    #: When True (default), the page cache grows until memory is full, the
    #: production norm.  When False, it is capped at ``cache_fraction`` —
    #: used by the fleet survey to model servers at varied utilisation.
    cache_opportunistic: bool = True

    # Performance-model inputs (Fig. 3 / Fig. 10).
    data_trace: TraceSpec = field(default_factory=lambda: TraceSpec(
        footprint_bytes=48 << 30, hot_fraction=0.05, hot_weight=0.55,
        stride_locality=0.3))
    instr_trace: TraceSpec = field(default_factory=lambda: TraceSpec(
        footprint_bytes=256 << 20, hot_fraction=0.1, hot_weight=0.8,
        stride_locality=0.5))
    #: Data accesses per instruction (loads+stores).
    data_access_per_instr: float = 0.45
    #: Instruction-side translations per instruction (fetch granularity).
    instr_fetch_per_instr: float = 0.2
    #: Baseline cycles per instruction excluding translation stalls.
    base_cpi: float = 0.8


class Workload:
    """Drives one kernel with one service's allocation pattern."""

    def __init__(self, kernel, spec: WorkloadSpec, seed: int = 0) -> None:
        self.kernel = kernel
        self.spec = spec
        self.rng = random.Random(seed)
        gib = kernel.mem.size_bytes / (1 << 30)
        self._scale = gib
        total_ring_frames = max(8, int(spec.net_rings_frames_per_gib * gib))
        nr_queues = max(1, int(8 * gib))
        self.netpool = NetworkBufferPool(kernel, NetworkQueueConfig(
            nr_queues=nr_queues,
            ring_frames_per_queue=max(1, total_ring_frames // nr_queues),
        ))
        self.slab = SlabAllocator(kernel)
        # SlabAllocator registers caches at construction only.
        self._slab_caches = tuple(self.slab.caches.values())
        self.pagetables = PageTableAllocator(kernel)
        self.anon_chunks: list[PageHandle | list[PageHandle]] = []
        self.gigapages: list[PageHandle] = []
        self._handles = kernel.handles
        self._resolve = kernel.handles.resolve
        self.cache_pages = HandleList(kernel.handles)
        self._cache_frames = 0
        self._prune_threshold = 4 * kernel.mem.nframes // 64
        #: PAGES_RECLAIMED and COMPACT_RUNS at the last cache prune —
        #: at construction, whose empty list is pruned by definition.
        #: Handles in ``cache_pages`` become freed through kernel reclaim
        #: (bounded-mode eviction pops them from the list first), so an
        #: unchanged PAGES_RECLAIMED means there is nothing to prune; the
        #: rare reclaim-compaction drop waits for the next prune, and
        #: every reader of the list skips freed handles.
        self._pruned_reclaimed = kernel.stat[ev.PAGES_RECLAIMED]
        self._pruned_compact_runs = kernel.stat[ev.COMPACT_RUNS]
        #: Expiry calendar: due step -> its entries (``ref << 2 |
        #: kind``) in scheduling order.  Every lifetime is at least one
        #: step and ``step`` expires right after advancing ``steps`` by
        #: one, so every key exceeds ``steps`` between steps and the
        #: only bucket ever due is ``steps`` itself.
        self._expiries: defaultdict[int, list[int]] = defaultdict(list)
        #: The slab objects the calendar names, by key.
        self._objects: dict = {}
        self._next_object = 0
        self.steps = 0
        self.started = False
        self._traffic = 1.0
        # Outcome counters.
        self.thp_hits = 0
        self.thp_misses = 0
        self.oom_events = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Deploy the service: networking up, heap mapped, cache warmed."""
        if self.started:
            raise SimInvariantError("workload already started")
        self.started = True
        self.netpool.bring_up()
        self._map_heap()
        self._fill_cache()

    def stop(self, kernel_residue: float = 0.5,
             keep_cache: bool = True) -> None:
        """Tear the service down (container restart).

        The service's own memory — heap, gigapages, pinned buffers — dies
        with the process.  Kernel-side allocations are another story:
        socket buffers parked on system connections, slab objects in
        shared caches, and page tables of co-tenants survive a container
        restart; ``kernel_residue`` is the fraction of live kernel
        allocations that leak this way.  The page cache survives too
        (``keep_cache``): the files are still cached, so the next tenant
        starts against full memory and allocates through reclaim — it is
        the combination of both effects that makes restarted servers
        "partially fragmented" (paper §5.1).
        """
        if not self.started:
            raise SimInvariantError("stopping a workload that never started")
        self.started = False
        for chunk in self.anon_chunks:
            for handle in self._chunk_handles(chunk):
                self.kernel.free_pages(handle)
        self.anon_chunks.clear()
        for handle in self.gigapages:
            self.kernel.free_pages(handle)
        self.gigapages.clear()
        if not keep_cache:
            for handle in self.cache_pages:
                if not handle.freed:
                    self.kernel.free_pages(handle)
        # Kept cache pages stay on the kernel's reclaim LRU; the next
        # tenant's allocations will evict them on demand.
        self.cache_pages.clear()
        self._cache_frames = 0
        self._drain_expiries(kernel_residue)
        self.netpool.tear_down()
        self.pagetables.on_unmap(10 ** 12)  # everything

    def _map_heap(self) -> None:
        """Map the anonymous footprint: 1 GiB pages when supported, THP
        2 MiB chunks otherwise, base pages as last resort."""
        spec = self.spec
        total = self.kernel.mem.nframes
        want = int(total * spec.anon_fraction)
        if spec.wants_1g:
            for _ in range(spec.gigapages_wanted):
                if want < GIGAPAGE_FRAMES:
                    break
                try:
                    self.gigapages.append(self.kernel.alloc_gigapage())
                    want -= GIGAPAGE_FRAMES
                except ContiguityError:
                    break
        while want >= PAGEBLOCK_FRAMES:
            chunk = self._alloc_chunk()
            if chunk is None:
                self.oom_events += 1
                break
            self.anon_chunks.append(chunk)
            want -= PAGEBLOCK_FRAMES

    def _alloc_chunk(self) -> PageHandle | list[PageHandle] | None:
        """One 2 MiB heap chunk: THP if available, else 512 base pages."""
        huge = self.kernel.alloc_thp()
        if huge is not None:
            self.thp_hits += 1
            self.pagetables.on_map(PAGEBLOCK_FRAMES, leaf_level=1)
            return huge
        self.thp_misses += 1
        pages = []
        try:
            for _ in range(PAGEBLOCK_FRAMES):
                pages.append(self.kernel.alloc_pages(0))
        except OutOfMemoryError:
            for h in pages:
                self.kernel.free_pages(h)
            return None
        self.pagetables.on_map(PAGEBLOCK_FRAMES, leaf_level=0)
        return pages

    def _fill_cache(self) -> None:
        """Warm the page cache to at least ``cache_fraction`` and then
        opportunistically until memory is full — the production steady
        state in which every later allocation is served from reclaimed
        pages (Linux never leaves memory idle)."""
        want = int(self.kernel.mem.nframes * self.spec.cache_fraction)
        reclaimed_before = self.kernel.stat[ev.PAGES_RECLAIMED]
        budget = self.kernel.mem.nframes  # hard stop, belt and braces
        try:
            while budget > 0:
                full = (self.kernel.free_frames() == 0
                        or self.kernel.stat[ev.PAGES_RECLAIMED]
                        > reclaimed_before)
                if len(self.cache_pages) >= want and (
                        full or not self.spec.cache_opportunistic):
                    break
                # Pages until the scalar loop's next stop-condition
                # boundary: below ``want`` the loop cannot break; at or
                # above it (opportunistic, not yet full) it runs until
                # free memory hits zero.  Batching up to that boundary
                # through the fast-path-only bulk API allocates the
                # exact PFN sequence of the scalar loop; any shortfall
                # (partial block, PCP routing, armed watermark fault)
                # falls through to one scalar allocation, which carries
                # the slow-path/reclaim/OOM semantics unchanged.
                if len(self.cache_pages) < want:
                    room = want - len(self.cache_pages)
                elif self.spec.cache_opportunistic and not full:
                    room = self.kernel.free_frames()
                else:
                    room = 1
                room = min(room, budget)
                batch = (self.kernel.alloc_pages_bulk(room, reclaimable=True)
                         if room > 1 else [])
                if batch:
                    self.cache_pages.extend(batch)
                    self._cache_frames += len(batch)
                    budget -= len(batch)
                    continue
                handle = self.kernel.alloc_pages(0, reclaimable=True)
                self.cache_pages.append(handle)
                self._cache_frames += handle.nframes
                budget -= 1
        except OutOfMemoryError:
            self.oom_events += 1

    # ------------------------------------------------------------------
    # Steady-state churn
    # ------------------------------------------------------------------

    def step(self) -> None:
        """One churn interval: expire dead allocations, create new ones."""
        if not self.started:
            raise SimInvariantError("stepping a workload that never started")
        self.steps += 1
        self._expire()
        # Diurnal traffic factor for kernel-side churn.
        spec = self.spec
        if spec.diurnal_amplitude:
            phase = 2.0 * math.pi * self.steps / spec.diurnal_period_steps
            self._traffic = 1.0 + spec.diurnal_amplitude * math.sin(phase)
        else:
            self._traffic = 1.0
        if len(self.cache_pages) > self._prune_threshold:
            # Prune handles the kernel's reclaim already freed.  Skipped
            # outright when PAGES_RECLAIMED has not moved since the last
            # prune — no reclaim means no cache handle was freed, so the
            # pass would rebuild an identical list.
            reclaimed = self.kernel.stat[ev.PAGES_RECLAIMED]
            if reclaimed != self._pruned_reclaimed:
                self._prune_cache(reclaimed)
        t = self._traffic
        self._spawn_poisson(spec.net_rate_per_gib * t, self._spawn_netbuf)
        self._spawn_poisson(spec.slab_rate_per_gib * t, self._spawn_slab)
        self._spawn_poisson(spec.fs_rate_per_gib * t, self._spawn_fs)
        self._spawn_poisson(spec.pin_rate_per_gib * t, self._spawn_pin)
        self._spawn_poisson(spec.pagetable_rate_per_gib, self._spawn_pt)
        self._spawn_poisson(spec.cache_churn_per_gib, self._spawn_cache)
        self.kernel.advance(STEP_TICKS)
        if _tp_step.enabled:
            _tp_step.emit(step=self.steps, traffic=round(self._traffic, 4),
                          cache_frames=self._cache_frames)

    def _prune_cache(self, reclaimed: int) -> None:
        """Drop from ``cache_pages`` every handle the kernel freed since
        the last prune; *reclaimed* is PAGES_RECLAIMED now.

        Reclaim frees in LRU order, which is this list's append order,
        so its victims normally sit at the front: cut the freed prefix,
        summing its frames.  The last prune left no freed handle behind,
        and the kernel frees a reclaimable page on its own in two places
        only — ``ReclaimLRU.reclaim``, which counts the frames in
        PAGES_RECLAIMED, and the reclaim-compaction drop, which only
        follows a compaction run.  So with COMPACT_RUNS unmoved, all the
        freed handles in the list hold at most the PAGES_RECLAIMED
        delta, and a prefix that held exactly the delta held all of
        them: the in-place cut is the filter's result.  The first prune
        is no exception — the counters were read when the list was
        empty.  Otherwise (a foreign reclaimable page in the delta,
        bounded mode's shuffled list, a compaction run) the full pass
        filters what is left and rebinds the list.
        """
        frames = self.cache_pages.cut_freed_prefix()
        self._cache_frames -= frames
        compact_runs = self.kernel.stat[ev.COMPACT_RUNS]
        if (compact_runs != self._pruned_compact_runs
                or frames != reclaimed - self._pruned_reclaimed):
            self.cache_pages = live = self.cache_pages.live()
            self._cache_frames = live.frames()
        self._pruned_reclaimed = reclaimed
        self._pruned_compact_runs = compact_runs

    def _spawn_poisson(self, rate_per_gib: float, spawn) -> None:
        """Draw this step's count of one churn kind and *spawn* it; the
        first OutOfMemoryError ends the kind for this step."""
        expected = rate_per_gib * self._scale
        count = int(expected)
        if self.rng.random() < expected - count:
            count += 1
        if count:
            try:
                spawn(count)
            except OutOfMemoryError:
                self.oom_events += 1

    # Each ``_spawn_*`` makes *count* allocations of one kind and files
    # each death in the calendar after an exponential lifetime of the
    # kind's mean, at least one step (``int(x) or 1`` is ``max(1,
    # int(x))`` for x >= 0).  Per event the draws are the stdlib's, in
    # the order the kind has always made them.

    def _spawn_netbuf(self, count: int) -> None:
        spec, rng = self.spec, self.rng
        choice, random, expovariate = rng.choice, rng.random, rng.expovariate
        alloc_buffer = self.netpool.alloc_buffer
        orders = spec.net_buffer_orders
        straggler_fraction = spec.net_straggler_fraction
        straggler_rate = 1.0 / spec.net_straggler_lifetime_steps
        rate = 1.0 / spec.net_lifetime_steps
        calendar, now = self._expiries, self.steps
        for _ in range(count):
            buf = alloc_buffer(order=choice(orders))
            life = expovariate(straggler_rate if random() < straggler_fraction
                               else rate)
            calendar[now + (int(life) or 1)].append(buf.slot << 2)

    def _spawn_slab(self, count: int) -> None:
        choice, expovariate = self.rng.choice, self.rng.expovariate
        caches, rate = self._slab_caches, 1.0 / self.spec.slab_lifetime_steps
        calendar, now, objects = self._expiries, self.steps, self._objects
        first = self._next_object
        self._next_object += count      # keys an OOM leaves unused stay so
        for key in range(first, first + count):
            objects[key] = choice(caches).alloc_object()
            calendar[now + (int(expovariate(rate)) or 1)].append(
                key << 2 | _SLAB)

    def _spawn_fs(self, count: int) -> None:
        spec, rng = self.spec, self.rng
        random, expovariate = rng.random, rng.expovariate
        alloc_pages = self.kernel.alloc_pages
        straggler_fraction = spec.fs_straggler_fraction
        straggler_rate = 1.0 / spec.fs_straggler_lifetime_steps
        rate = 1.0 / spec.fs_lifetime_steps
        calendar, now = self._expiries, self.steps
        for _ in range(count):
            handle = alloc_pages(0, source=AllocSource.FILESYSTEM,
                                 migratetype=MigrateType.UNMOVABLE)
            life = expovariate(straggler_rate if random() < straggler_fraction
                               else rate)
            calendar[now + (int(life) or 1)].append(handle.slot << 2 | _FS)

    def _spawn_pin(self, count: int) -> None:
        kernel, expovariate = self.kernel, self.rng.expovariate
        rate = 1.0 / self.spec.pin_lifetime_steps
        calendar, now = self._expiries, self.steps
        for _ in range(count):
            handle = kernel.alloc_pages(0)
            kernel.pin_pages(handle)
            calendar[now + (int(expovariate(rate)) or 1)].append(
                handle.slot << 2 | _PIN)

    def _spawn_pt(self, count: int) -> None:
        """Page-table pages of short-lived sibling processes (forks,
        build jobs); a direct unmovable source beyond the service's own
        mapping tree."""
        alloc_pages = self.kernel.alloc_pages
        expovariate = self.rng.expovariate
        rate = 1.0 / self.spec.pagetable_lifetime_steps
        calendar, now = self._expiries, self.steps
        for _ in range(count):
            handle = alloc_pages(0, source=AllocSource.PAGETABLE,
                                 migratetype=MigrateType.UNMOVABLE)
            calendar[now + (int(expovariate(rate)) or 1)].append(
                handle.slot << 2 | _FS)

    def _spawn_cache(self, count: int) -> None:
        spec, kernel, pages = self.spec, self.kernel, self.cache_pages
        # Bounded-cache mode stays at the configured utilisation.
        # Eviction picks a *random* victim — file-access recency is
        # uncorrelated with allocation address, so real LRU eviction
        # shreds free memory across the address space.
        bounded = not spec.cache_opportunistic
        target = int(kernel.mem.nframes * spec.cache_fraction)
        for _ in range(count):
            handle = kernel.alloc_pages(spec.cache_batch_order,
                                        reclaimable=True)
            pages.append(handle)
            self._cache_frames += handle.nframes
            while bounded and self._cache_frames > target and pages:
                old = pages.swap_pop(self.rng.randrange(len(pages)))
                self._cache_frames -= old.nframes
                if not old.freed:
                    kernel.free_pages(old)

    def _expire(self) -> None:
        release = self._release
        for entry in self._expiries.pop(self.steps, ()):
            release(entry)

    def _drain_expiries(self, kernel_residue: float = 0.0) -> None:
        """Flush every pending expiry, in due order and, within a step,
        in scheduling order.

        Each live *kernel* allocation (networking/slab/fs/pagetable) leaks
        with probability *kernel_residue* — it simply stays allocated,
        scattered wherever it was placed.  Pins always die: the process
        exit unpins and frees them.
        """
        calendar = self._expiries
        for due in sorted(calendar):
            for entry in calendar.pop(due):
                if (entry & 3 != _PIN and kernel_residue > 0
                        and self.rng.random() < kernel_residue):
                    # Leaked: permanent unmovable residue.
                    if entry & 3 == _SLAB:
                        del self._objects[entry >> 2]
                    continue
                self._release(entry)

    def _release(self, entry: int) -> None:
        kind = entry & 3
        if kind == _SLAB:
            ref = self._objects.pop(entry >> 2)
            ref.cache.free_object(ref)
            return
        handle = self._resolve(entry >> 2)
        if handle.freed:
            return
        if kind == _NET:
            self.netpool.free_buffer(handle)
        else:                       # fs / pin: a bare page
            if handle.pinned:
                self.kernel.unpin_pages(handle)
            self.kernel.free_pages(handle)

    # ------------------------------------------------------------------
    # Snapshot (the checkpoint schema)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The driver's mutable state as sections, handles as registry
        slots: the heap (a THP chunk as size 0, a base-page chunk as its
        page count), the gigapages, ``cache_pages`` (its slot array),
        the network pool, slab caches and page tables, the expiry
        calendar (each due step's entries as kind codes and refs: a
        slot, or a slab object's key; the objects in key order as the
        slab's object columns beside their keys), and the scalars and
        RNG state."""
        chunks = [[chunk] if type(chunk) is PageHandle else chunk
                  for chunk in self.anon_chunks]
        entries = int64(list(chain.from_iterable(self._expiries.values())))
        return {
            "anon.slots": int64([handle.slot for chunk in chunks
                                 for handle in chunk]),
            "anon.sizes": int64([0 if type(chunk) is PageHandle
                                 else len(chunk)
                                 for chunk in self.anon_chunks]),
            "gigapages": int64([handle.slot for handle in self.gigapages]),
            "cache": self.cache_pages.snapshot(),
            **nest("net", self.netpool.snapshot()),
            **nest("slab", self.slab.snapshot(list(self._objects.values()))),
            **nest("pagetables", self.pagetables.snapshot()),
            "calendar.due": int64(list(self._expiries)),
            "calendar.sizes": int64(list(map(len, self._expiries.values()))),
            "calendar.kinds": (entries & 3).astype(np.int8),
            "calendar.refs": entries >> 2,
            "calendar.objects": int64(list(self._objects)),
            "state": {
                "rng": rng_state(self.rng), "steps": self.steps,
                "started": self.started, "traffic": self._traffic,
                "cache_frames": self._cache_frames,
                "pruned": [self._pruned_reclaimed,
                           self._pruned_compact_runs],
                "next_object": self._next_object,
                "outcomes": [self.thp_hits, self.thp_misses,
                             self.oom_events]}}

    def restore(self, sections) -> None:
        """Load a :meth:`snapshot` into this driver, freshly built (not
        started) over the kernel the snapshot's kernel sections were
        loaded into.  Only the heap, gigapage, slab-page and page-table
        handles are built here; every other slot waits until it is
        read."""
        registry = self._handles
        resolve, nslots = registry.resolve, len(registry._slots)
        heap = list(map(resolve, rows_of(sections["anon.slots"], nslots)))
        self.anon_chunks, at = [], 0
        for size in sections["anon.sizes"].tolist():
            self.anon_chunks.append(heap[at] if size == 0
                                    else heap[at:at + size])
            at += size or 1
        if at != len(heap):
            raise ValueError("heap chunk sizes do not add up")
        self.gigapages = list(map(resolve, rows_of(sections["gigapages"],
                                                   nslots)))
        self.cache_pages = HandleList.restore(registry, sections["cache"])
        self.netpool.restore(scope("net", sections))
        objects = self.slab.restore(scope("slab", sections))
        self.pagetables.restore(scope("pagetables", sections))
        keys = sections["calendar.objects"].tolist()
        self._objects = dict(zip(keys, objects, strict=True))
        if len(self._objects) != len(keys):
            raise ValueError("a slab object key repeats")
        # Each entry's ref: a slab object's key, any other's slot.
        kinds = np.asarray(sections["calendar.kinds"])
        refs = np.asarray(sections["calendar.refs"]).astype(np.int64)
        rows_of(kinds, 4)
        slab = kinds == _SLAB
        rows_of(refs[~slab], nslots)
        if not np.isin(refs[slab], keys).all():
            raise IndexError("a calendar entry names no slab object")
        entries = (refs << 2 | kinds).tolist()
        self._expiries.clear()
        at = 0
        for due, size in zip(sections["calendar.due"].tolist(),
                             sections["calendar.sizes"].tolist(),
                             strict=True):
            self._expiries[due] = entries[at:at + size]
            at += size
        if at != len(entries):
            raise ValueError("calendar sizes do not add up")
        state = sections["state"]
        set_rng_state(self.rng, state["rng"])
        self.steps, self.started = state["steps"], state["started"]
        self._traffic, self._cache_frames = (state["traffic"],
                                             state["cache_frames"])
        self._pruned_reclaimed, self._pruned_compact_runs = state["pruned"]
        self._next_object = state["next_object"]
        self.thp_hits, self.thp_misses, self.oom_events = state["outcomes"]

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def huge_coverage(self) -> dict[str, float]:
        """Fraction of the anonymous heap backed by each page size."""
        frames_1g = len(self.gigapages) * GIGAPAGE_FRAMES
        frames_2m = sum(PAGEBLOCK_FRAMES for c in self.anon_chunks
                        if isinstance(c, PageHandle))
        frames_4k = sum(len(c) for c in self.anon_chunks
                        if not isinstance(c, PageHandle))
        total = frames_1g + frames_2m + frames_4k
        if total == 0:
            return {"1g": 0.0, "2m": 0.0, "4k": 0.0}
        return {
            "1g": frames_1g / total,
            "2m": frames_2m / total,
            "4k": frames_4k / total,
        }

    @staticmethod
    def _chunk_handles(chunk) -> list[PageHandle]:
        return [chunk] if isinstance(chunk, PageHandle) else chunk
