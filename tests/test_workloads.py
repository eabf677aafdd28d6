"""Workload driver, service specs, fragmenters, interference model."""

import pytest

from repro.core.hwext import AccessMode
from repro.mm import vmstat as ev
from repro.units import MiB, PAGEBLOCK_FRAMES
from repro.workloads import (
    MEMCACHED,
    NGINX,
    PRODUCTION_SERVICES,
    REGULAR_RATE,
    VERY_HIGH_RATE,
    Workload,
    WorkloadSpec,
    fragment_fully,
    fragment_partially,
    interference_overhead,
    relative_throughput,
)
from repro.workloads.services import CACHE_B, CI, WEB
from repro.analysis import unmovable_block_fraction

from conftest import anon_frames, make_contiguitas, make_linux


class TestWorkloadLifecycle:
    def test_start_maps_heap_and_cache(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, CACHE_B, seed=0)
        w.start()
        assert anon_frames(w) >= int(k.mem.nframes * 0.5)
        assert len(w.cache_pages) > 0
        assert sum(h.nframes for h in w.netpool.rings) > 0

    def test_thp_used_when_memory_clean(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, CACHE_B, seed=0)
        w.start()
        assert w.thp_hits > 0
        assert w.huge_coverage()["2m"] > 0.9

    def test_steps_churn_without_leaking(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, CACHE_B, seed=0)
        w.start()
        for _ in range(100):
            w.step()
        k.check_consistency()
        assert w.oom_events == 0

    def test_stop_releases_service_memory(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, CACHE_B, seed=0)
        w.start()
        for _ in range(50):
            w.step()
        before = k.free_frames()
        w.stop()
        assert k.free_frames() > before
        k.check_consistency()

    def test_huge_coverage_fractions_sum_to_one(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, WEB, seed=0)
        w.start()
        cov = w.huge_coverage()
        assert sum(cov.values()) == pytest.approx(1.0)

    def test_web_tries_gigapages(self):
        k = make_linux(mem_mib=64)  # too small for 1 GiB: graceful miss
        w = Workload(k, WEB, seed=0)
        w.start()
        assert w.gigapages == []
        assert k.stat[ev.HUGETLB_1G_FAIL] >= 0


class TestServiceSpecs:
    def test_production_set(self):
        names = {s.name for s in PRODUCTION_SERVICES}
        assert names == {"Web", "CacheA", "CacheB"}

    def test_only_web_wants_gigapages(self):
        assert WEB.wants_1g
        assert not CACHE_B.wants_1g

    def test_ci_is_kernel_heavy(self):
        assert CI.slab_rate_per_gib > CACHE_B.slab_rate_per_gib
        assert CI.fs_rate_per_gib > CACHE_B.fs_rate_per_gib


class TestFragmentation:
    def test_full_fragmentation_blocks_thp(self):
        k = make_linux(mem_mib=64)
        fragment_fully(k)
        assert unmovable_block_fraction(
            k.mem, PAGEBLOCK_FRAMES) > 0.5
        assert k.alloc_thp() is None

    def test_full_fragmentation_leaves_memory_mostly_free(self):
        k = make_linux(mem_mib=64)
        fragment_fully(k)
        assert k.free_frames() > k.mem.nframes * 0.7
        assert k.mem.unmovable_mask().mean() < 0.15

    def test_contiguitas_immune_to_full_fragmentation(self):
        """The paper's key claim: Contiguitas behaves identically under
        Full and Partial fragmentation because unmovable allocations are
        confined."""
        k = make_contiguitas(mem_mib=64)
        fragment_fully(k)
        assert k.confinement_violations() == 0
        assert k.alloc_thp() is not None

    def test_partial_fragmentation_runs_and_restarts(self):
        k = make_linux(mem_mib=64)
        fragment_partially(k, CACHE_B, steps=30)
        # The kernel survived a full service lifecycle.
        k.check_consistency()
        w = Workload(k, CACHE_B, seed=1)
        w.start()
        assert anon_frames(w) > 0


class TestInterference:
    def test_regular_rate_negligible(self):
        for app in (NGINX, MEMCACHED):
            oh = interference_overhead(app, REGULAR_RATE,
                                       AccessMode.NONCACHEABLE)
            assert oh < 0.001, app.name

    def test_very_high_rate_small_noncacheable(self):
        """§5.3: 0.2 % for NGINX, 0.3 % for memcached at 1000/s."""
        nginx = interference_overhead(NGINX, VERY_HIGH_RATE,
                                      AccessMode.NONCACHEABLE)
        mc = interference_overhead(MEMCACHED, VERY_HIGH_RATE,
                                   AccessMode.NONCACHEABLE)
        assert 0.0005 < nginx < 0.005
        assert 0.0005 < mc < 0.006
        assert mc > nginx  # memcached touches buffers harder

    def test_cacheable_effectively_free(self):
        oh = interference_overhead(MEMCACHED, VERY_HIGH_RATE,
                                   AccessMode.CACHEABLE)
        assert oh < 0.0001

    def test_relative_throughput(self):
        rel = relative_throughput(NGINX, VERY_HIGH_RATE,
                                  AccessMode.NONCACHEABLE)
        assert 0.99 < rel < 1.0

    def test_overhead_scales_with_rate(self):
        a = interference_overhead(NGINX, 100, AccessMode.NONCACHEABLE)
        b = interference_overhead(NGINX, 1000, AccessMode.NONCACHEABLE)
        assert b == pytest.approx(10 * a)
