"""Timing core and the simulated request loop."""

import pytest

from repro.core.hwext import AccessMode
from repro.errors import ConfigurationError
from repro.sim import DEFAULT_PARAMS
from repro.sim.core import TimingCore
from repro.sim.tlb import SHIFT_2M, SHIFT_4K
from repro.workloads import MEMCACHED, NGINX
from repro.workloads.requestloop import (
    RequestLoop,
    relative_throughput_simulated,
)


class TestTimingCore:
    def test_compute_only_cpi_is_issue_bound(self):
        core = TimingCore()
        for _ in range(1000):
            core.execute()
        assert core.stats.cpi == pytest.approx(
            1.0 / DEFAULT_PARAMS.issue_width)

    def test_memory_ops_cost_more(self):
        core = TimingCore()
        core.execute(0x1000, SHIFT_4K)
        with_mem = core.stats.cpi
        assert with_mem > 1.0 / DEFAULT_PARAMS.issue_width

    def test_locality_lowers_cpi(self):
        hot = TimingCore()
        cold = TimingCore()
        for i in range(2000):
            hot.execute(0x1000, SHIFT_4K)          # same line every time
            cold.execute(i * 4096 * 7, SHIFT_4K)   # new page every time
        assert hot.stats.cpi < cold.stats.cpi

    def test_huge_mapping_cuts_translation(self):
        small = TimingCore()
        big = TimingCore()
        for i in range(3000):
            addr = (i * 977) % (1 << 30)
            small.execute(addr, SHIFT_4K)
            big.execute(addr, SHIFT_2M)
        assert big.stats.translation_cycles < small.stats.translation_cycles

    def test_overlap_bounds(self):
        with pytest.raises(ConfigurationError):
            TimingCore(overlap=1.0)
        with pytest.raises(ConfigurationError):
            TimingCore(overlap=-0.1)

    def test_walk_share_between_zero_and_one(self):
        core = TimingCore()
        for i in range(500):
            core.execute(i * 4096 * 13, SHIFT_4K)
            core.execute()
        assert 0.0 < core.stats.walk_share < 1.0


class TestRequestLoop:
    def test_quiet_run_counts_requests(self):
        result = RequestLoop(NGINX).run(200)
        assert result.requests == 200
        assert result.cycles > 0
        assert result.migrations_seen == 0

    def test_migrations_observed_at_high_rate(self):
        loop = RequestLoop(NGINX)
        result = loop.run(500, migrations_per_second=2e6)
        assert result.migrations_seen > 0

    def test_simulated_overhead_small_and_ordered(self):
        """§5.3's conclusion, reproduced at instruction level: sub-percent
        overhead even at Very High rate, memcached > nginx, cacheable
        cheaper than noncacheable."""
        nginx = relative_throughput_simulated(NGINX, 1000.0, requests=800)
        mc = relative_throughput_simulated(MEMCACHED, 1000.0, requests=800)
        mc_c = relative_throughput_simulated(
            MEMCACHED, 1000.0, mode=AccessMode.CACHEABLE, requests=800)
        for rel in (nginx, mc, mc_c):
            assert 0.99 < rel <= 1.0
        assert mc <= nginx
        assert mc_c >= mc

    def test_zero_rate_is_exactly_one(self):
        assert relative_throughput_simulated(NGINX, 0.0, requests=50) == 1.0

    def test_deterministic(self):
        a = relative_throughput_simulated(NGINX, 500.0, requests=300, seed=4)
        b = relative_throughput_simulated(NGINX, 500.0, requests=300, seed=4)
        assert a == b
