"""Timing core and the simulated request loop."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def cpi(stats) -> float:
    return stats.cycles / stats.instructions


class TestTimingCore:
    def test_compute_only_cpi_is_issue_bound(self):
        core = TimingCore()
        for _ in range(1000):
            core.execute()
        assert cpi(core.stats) == pytest.approx(
            1.0 / DEFAULT_PARAMS.issue_width)

    def test_memory_ops_cost_more(self):
        core = TimingCore()
        core.execute(0x1000, SHIFT_4K)
        with_mem = cpi(core.stats)
        assert with_mem > 1.0 / DEFAULT_PARAMS.issue_width

    def test_locality_lowers_cpi(self):
        hot = TimingCore()
        cold = TimingCore()
        for i in range(2000):
            hot.execute(0x1000, SHIFT_4K)          # same line every time
            cold.execute(i * 4096 * 7, SHIFT_4K)   # new page every time
        assert cpi(hot.stats) < cpi(cold.stats)

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
        stats = core.stats
        assert 0 < stats.translation_cycles < stats.cycles


def _clock_strategy():
    """Where double rounding could hide: zero, far below one slot, on
    and just under a power of two, and anywhere up to 2**40."""
    powers = st.integers(-3, 40).map(lambda k: 2.0 ** k)
    return st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 1e-9]),
        powers,
        powers.map(lambda x: x * (1.0 - 2.0 ** -53)),
        st.floats(min_value=0.0, max_value=2.0 ** 40))


class TestRetire:
    """``retire(n)`` against the loop it replaced: exact equality."""

    @staticmethod
    def _core(width, clock):
        core = TimingCore(dataclasses.replace(DEFAULT_PARAMS,
                                              issue_width=width))
        core.stats.cycles = clock
        return core

    @settings(max_examples=150, deadline=None)
    @given(width=st.sampled_from([1, 2, 4, 8]), clock=_clock_strategy(),
           n=st.integers(0, 10_000))
    # Crosses 32, 64 and 128: the one-shot product rounds once where the
    # loop rounds three times.
    @example(width=4, clock=26.70849061381627, n=609)
    def test_equals_n_single_instructions(self, width, clock, n):
        batched = self._core(width, clock)
        looped = self._core(width, clock)
        batched.retire(n)
        for _ in range(n):
            looped.execute()
        assert batched.stats == looped.stats

    def test_one_shot_product_is_not_the_loop(self):
        """Why ``retire`` advances binade by binade."""
        clock, n = 26.70849061381627, 609
        core = self._core(4, clock)
        core.retire(n)
        assert core.stats.cycles == 178.95849061381625
        assert clock + n * 0.25 == 178.95849061381628

    def test_execute_without_address_is_retire_one(self):
        a, b = self._core(4, 7.3), self._core(4, 7.3)
        assert a.execute() == 0.25
        b.retire(1)
        assert a.stats == b.stats

    def test_zero_is_a_no_op_and_negative_is_refused(self):
        core = self._core(4, 7.3)
        before = dataclasses.replace(core.stats)
        core.retire(0)
        assert core.stats == before
        with pytest.raises(ConfigurationError, match="retire -1"):
            core.retire(-1)
        assert core.stats == before

    def test_other_widths_charge_n_slots(self):
        """No loop to match for a non-power-of-two width: the closed
        form is the definition, and it is n slots to within rounding."""
        core = self._core(3, 0.0)
        core.retire(3000)
        assert core.stats.instructions == 3000
        assert core.stats.cycles == pytest.approx(1000.0, rel=1e-12)


class TestRequestLoop:
    def test_zero_instruction_request_retires_nothing_negative(self):
        """``instructions=0`` used to compute ``range(-1)``; the compute
        part is now clamped at zero and the one touch is all it costs."""
        loop = RequestLoop(NGINX, seed=2)
        loop.serve_request(instructions=0)
        assert loop.core.stats.instructions == 1
        assert loop.core.tlb.stats.accesses == 1

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
