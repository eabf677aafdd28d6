"""Timing core and the simulated request loop."""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hwext import AccessMode
from repro.errors import ConfigurationError
from repro.sim import DEFAULT_PARAMS
from repro.sim.core import TimingCore
from repro.sim.tlb import SHIFT_1G, SHIFT_2M, SHIFT_4K
from repro.workloads import MEMCACHED, NGINX, interference_overhead
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


class TwoCallCore(TimingCore):
    """Reference: ``execute`` as it was before its L1-hit path — every
    memory op through ``translate`` + ``data_access_cycles``."""

    def execute(self, vaddr=None, shift=SHIFT_4K):
        cycles = 1.0 / self.params.issue_width
        if vaddr is None:
            self.retire(1)
            return cycles
        stats = self.stats
        xlat = self.tlb.translate(vaddr, shift)
        cycles += xlat
        stats.translation_cycles += xlat
        data = self.data_access_cycles(vaddr)
        exposed = data * (1.0 - self.overlap)
        cycles += exposed
        stats.data_cycles += exposed
        stats.instructions += 1
        stats.cycles += cycles
        return cycles


def _ops(seed, n):
    """Compute ops and memory ops over three page sizes: hot lines (L1
    hits once warm), other lines of hot pages (L1D misses) and far
    pages (L1-TLB misses)."""
    rng = random.Random(f"hit-path:{seed}")
    hot = [rng.randrange(1 << 24) << 6 for _ in range(24)]
    for _ in range(n):
        r = rng.random()
        shift = rng.choices((SHIFT_4K, SHIFT_2M, SHIFT_1G), (8, 1, 1))[0]
        if r < 0.1:
            yield None, shift
        elif r < 0.7:
            yield rng.choice(hot), shift
        elif r < 0.85:
            yield rng.choice(hot) ^ (rng.randrange(64) << 6), shift
        else:
            yield rng.randrange(1 << 40), shift


def _state(core):
    """Every number and every entry the two paths may touch."""
    tlb = core.tlb
    arrays = (tlb.l1, tlb.l2, tlb.l1_1g, core.l1, core.l2, *core.llc.slices)
    return (core.stats, tlb.stats,
            [(a.label, a.hits, a.misses, a._stamp,
              [list(entry.items()) for entry in a._sets]) for a in arrays],
            [(pwc._stamp, list(pwc._cache.items())) for pwc in tlb.pwcs])


class TestHitPathDifferential:
    """``execute``'s one-frame L1 hit changes what the two calls would."""

    # Width 3: a slot that is not a power of two, where adding the hit's
    # three terms in another order gives another double.
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("overlap", [0.0, 0.6, 0.95])
    def test_matches_two_call_reference(self, overlap, width):
        params = dataclasses.replace(DEFAULT_PARAMS, issue_width=width)
        real = TimingCore(params, overlap=overlap)
        reference = TwoCallCore(params, overlap=overlap)
        walks = []
        translate = real.tlb.translate
        real.tlb.translate = lambda *a: walks.append(a[1]) or translate(*a)
        memory_ops = 0
        for vaddr, shift in _ops(width, 4000):
            assert real.execute(vaddr, shift) == reference.execute(
                vaddr, shift)
            memory_ops += vaddr is not None
        assert _state(real) == _state(reference)
        # Both paths ran, and every page size took the two-call one.
        assert walks and memory_ops - len(walks) > memory_ops // 4
        assert set(walks) == {SHIFT_4K, SHIFT_2M, SHIFT_1G}
        assert real.l1.misses and real.tlb.l1.misses

    @pytest.mark.parametrize("n", [1, 8, 64, 100])
    def test_randbelow_is_randrange(self, n):
        """The touch loop draws through ``Random._randbelow``, which is
        what ``randrange(n)`` calls for an int n > 0 on this interpreter:
        the same values and the same generator state after them."""
        a, b = random.Random(f"pin:{n}"), random.Random(f"pin:{n}")
        assert ([a._randbelow(n) for _ in range(2000)]
                == [b.randrange(n) for _ in range(2000)])
        assert a.getstate() == b.getstate()


class TestRequestLoop:
    @pytest.mark.parametrize("field,value", [
        ("buffer_pages", 0), ("buffer_pages", -4),
        ("instructions_per_request", 0), ("instructions_per_request", -5)])
    def test_bad_sizes_are_refused_before_any_draw(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be >= 1, got {value}$"):
            RequestLoop(NGINX, **{field: value})

    @pytest.mark.parametrize("requests", [0, -3])
    def test_no_requests_is_refused(self, requests):
        with pytest.raises(ConfigurationError, match="^requests must be"):
            relative_throughput_simulated(NGINX, 1000.0, requests=requests)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                      float("-inf"), -5, -1e-9])
    def test_a_rate_that_is_not_finite_and_non_negative_is_refused(
            self, rate):
        """NaN used to return ``nan`` overhead and a throughput of 1.0,
        a negative rate a negative overhead, and a loop run at either
        served quietly (at an infinite one, it divided by zero)."""
        refused = pytest.raises(ConfigurationError,
                                match="^migrations_per_second must be")
        for mode in AccessMode:
            with refused:
                interference_overhead(NGINX, rate, mode)
        with refused:
            relative_throughput_simulated(NGINX, rate, requests=50)
        with refused:
            RequestLoop(NGINX).run(5, migrations_per_second=rate)

    def test_a_zero_rate_is_no_interference(self):
        for mode in AccessMode:
            assert interference_overhead(NGINX, 0, mode) == 0.0
            assert relative_throughput_simulated(
                NGINX, 0.0, mode=mode, requests=50) == 1.0

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
