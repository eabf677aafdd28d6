"""Failure injection and container co-tenancy scenarios."""

import random

import pytest

from repro.errors import MigrationError, OutOfMemoryError
from repro.mm import (
    AllocSource,
    MigrateType,
    PageFlag,
    PageHandle,
    move_allocation,
)
from repro.sim.trace import TraceSpec, generate_addresses
from repro.units import PAGEBLOCK_FRAMES
from repro.workloads import Workload
from repro.workloads.services import CACHE_B, CI

from conftest import anon_frames, make_contiguitas, make_linux


class TestFailureInjection:
    def test_pin_mid_compaction_is_skipped_not_corrupted(self):
        """Pages pinned between compaction passes are left alone; the
        pass completes and bookkeeping stays exact."""
        k = make_linux(mem_mib=16, compaction_enabled=False)
        pages = [k.alloc_pages(0) for _ in range(k.mem.nframes)]
        rng = random.Random(1)
        for i, h in enumerate(pages):
            if i % 2 == 0:
                k.free_pages(h)
        live = [h for h in pages if not h.freed]
        # Inject: pin a random subset mid-scenario.
        for h in rng.sample(live, 30):
            k.pin_pages(h)
        pinned_pfns = {h.pfn for h in live if h.pinned}
        result = k.compactor.compact(k.buddy, k.handles,
                                     target_order=9)
        assert result.pages_skipped_unmovable >= 1
        # No pinned page moved.
        assert {h.pfn for h in live if h.pinned} == pinned_pfns
        k.check_consistency()

    def test_move_allocation_rejects_double_migration(self):
        k = make_linux(mem_mib=16)
        h = k.alloc_pages(0)
        k.mem.flags[h.pfn] |= 1 << PageFlag.UNDER_MIGRATION
        dst = k.buddy.take_free(0, MigrateType.MOVABLE)
        with pytest.raises(MigrationError):
            move_allocation(k.mem, h.pfn, dst)

    def test_evacuation_failure_leaves_partial_progress_consistent(self):
        """A blocked evacuation (pinned page mid-range) must not corrupt
        state: already-moved pages stay moved, the rest stay put."""
        k = make_linux(mem_mib=16)
        handles = [k.alloc_pages(0) for _ in range(100)]
        blocker = handles[50]
        k.pin_pages(blocker)
        block = k.mem.pageblock_of(blocker.pfn)
        start = block * PAGEBLOCK_FRAMES
        result = k.evacuator.evacuate(k.buddy, k.handles, start,
                                      start + PAGEBLOCK_FRAMES)
        assert not result.success
        assert result.blocked_by == blocker.pfn
        k.check_consistency()

    def test_oom_storm_recovers(self):
        """Repeated OOMs under a tight loop never wedge the allocator:
        freeing anything makes allocation work again."""
        k = make_contiguitas(mem_mib=8)
        live = []
        for _ in range(3):
            try:
                while True:
                    live.append(k.alloc_pages(0))
            except OutOfMemoryError:
                pass
            for _ in range(50):
                k.free_pages(live.pop())
            live.append(k.alloc_pages(0))  # must succeed again
        k.check_consistency()

    def test_unmovable_region_exhaustion_is_clean(self):
        """Unmovable OOM (movable region can't shrink further) raises
        without leaking partial expansions."""
        k = make_contiguitas(mem_mib=8)
        user = []
        try:
            while True:
                user.append(k.alloc_pages(0))
        except OutOfMemoryError:
            pass
        blocks_before = k.layout.unmovable_blocks
        with pytest.raises(OutOfMemoryError):
            for _ in range(10_000):
                k.alloc_pages(0, source=AllocSource.NETWORKING)
        k.check_consistency()
        assert k.layout.unmovable_blocks >= blocks_before


class TestCoTenancy:
    def test_two_services_share_one_kernel(self):
        """Containerised co-tenancy: two workloads churn on one machine;
        confinement and bookkeeping hold for the union."""
        import dataclasses

        k = make_contiguitas(mem_mib=128)
        small = dataclasses.replace(
            CACHE_B, anon_fraction=0.25, cache_fraction=0.1,
            cache_opportunistic=False)
        tenant_a = Workload(k, small, seed=1)
        tenant_b = Workload(k, dataclasses.replace(
            CI, anon_fraction=0.15, cache_fraction=0.1,
            cache_opportunistic=False), seed=2)
        tenant_a.start()
        tenant_b.start()
        for _ in range(150):
            tenant_a.step()
            tenant_b.step()
        assert k.confinement_violations() == 0
        k.check_consistency()
        # One tenant restarting does not disturb the other.
        tenant_a.stop()
        for _ in range(50):
            tenant_b.step()
        k.check_consistency()

    def test_tenant_restart_leaves_other_tenants_pages(self):
        import dataclasses

        k = make_linux(mem_mib=64)
        spec = dataclasses.replace(CACHE_B, anon_fraction=0.2,
                                   cache_fraction=0.05,
                                   cache_opportunistic=False)
        a = Workload(k, spec, seed=1)
        b = Workload(k, spec, seed=2)
        a.start()
        b.start()
        b_frames = anon_frames(b)
        a.stop(kernel_residue=0.0, keep_cache=False)
        assert anon_frames(b) == b_frames
        for chunk in b.anon_chunks:
            for h in b._chunk_handles(chunk):
                assert not h.freed


class TestZipfTraces:
    def test_zipf_heavier_head_than_uniform(self):
        spec = TraceSpec(footprint_bytes=1 << 30, zipf_exponent=1.5)
        addrs = generate_addresses(spec, 20_000, seed=0)
        pages = addrs // 4096
        head_share = (pages < 64).mean()
        assert head_share > 0.5

    def test_zipf_respects_footprint(self):
        spec = TraceSpec(footprint_bytes=1 << 20, zipf_exponent=1.2)
        addrs = generate_addresses(spec, 5000, seed=1)
        assert addrs.max() < (1 << 20)

    def test_zipf_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TraceSpec(footprint_bytes=4096, zipf_exponent=1.0)
