"""TLB hierarchy, page walks, and page-size effects."""

import numpy as np
import pytest

from repro.sim import (
    DEFAULT_PARAMS,
    SHIFT_1G,
    SHIFT_2M,
    SHIFT_4K,
    SetAssocTLB,
    TLBHierarchy,
    TraceSpec,
    generate_addresses,
)


class TestSetAssocTLB:
    def test_miss_then_hit(self):
        tlb = SetAssocTLB(64, 4)
        assert not tlb.lookup(10, SHIFT_4K)
        tlb.fill(10, SHIFT_4K)
        assert tlb.lookup(10, SHIFT_4K)

    def test_page_sizes_are_distinct_tags(self):
        tlb = SetAssocTLB(64, 4)
        tlb.fill(10, SHIFT_4K)
        assert not tlb.lookup(10, SHIFT_2M)

    def test_eviction_on_conflict(self):
        tlb = SetAssocTLB(4, 4)  # one set
        for vpn in range(4):
            tlb.fill(vpn, SHIFT_4K)
        tlb.lookup(0, SHIFT_4K)  # refresh
        tlb.fill(99, SHIFT_4K)
        assert tlb.lookup(0, SHIFT_4K)
        assert not tlb.lookup(1, SHIFT_4K)

    def test_flush(self):
        tlb = SetAssocTLB(64, 4)
        tlb.fill(4, SHIFT_4K)
        tlb.flush()
        assert not tlb.lookup(4, SHIFT_4K)


class TestTLBHierarchy:
    def test_l1_hit_is_cheap(self):
        h = TLBHierarchy(DEFAULT_PARAMS)
        h.translate(0x1000, SHIFT_4K)  # cold miss
        cycles = h.translate(0x1000, SHIFT_4K)
        assert cycles == DEFAULT_PARAMS.l1_tlb_latency
        assert h.stats.l1_hits == 1

    def test_walk_cost_exceeds_hits(self):
        h = TLBHierarchy(DEFAULT_PARAMS)
        cold = h.translate(0x5000, SHIFT_4K)
        warm = h.translate(0x5000, SHIFT_4K)
        assert cold > warm

    def test_pwc_shortens_second_walk(self):
        h = TLBHierarchy(DEFAULT_PARAMS)
        first = h.translate(0x0000_0000, SHIFT_4K)
        # Different page, same upper-level entries: the PWC covers the
        # PML4/PDPT/PD levels, leaving only the PTE access.
        second = h.translate(0x0000_2000, SHIFT_4K)
        assert second < first

    def test_huge_pages_walk_fewer_levels(self):
        h4k = TLBHierarchy(DEFAULT_PARAMS)
        h2m = TLBHierarchy(DEFAULT_PARAMS)
        h1g = TLBHierarchy(DEFAULT_PARAMS)
        c4k = h4k.translate(0, SHIFT_4K)
        c2m = h2m.translate(0, SHIFT_2M)
        c1g = h1g.translate(0, SHIFT_1G)
        assert c4k > c2m > c1g

    def test_huge_pages_raise_tlb_reach(self):
        """The core Fig. 3 effect: the same footprint has far fewer walks
        when mapped with 2 MiB pages."""
        spec = TraceSpec(footprint_bytes=512 << 20, hot_fraction=0.05,
                         hot_weight=0.5)
        addrs = generate_addresses(spec, 20_000, seed=1)
        h4k = TLBHierarchy(DEFAULT_PARAMS)
        h2m = TLBHierarchy(DEFAULT_PARAMS)
        for a in addrs.tolist():
            h4k.translate(a, SHIFT_4K)
            h2m.translate(a, SHIFT_2M)
        assert h2m.stats.walks < h4k.stats.walks / 2
        assert h2m.stats.walk_cycles < h4k.stats.walk_cycles

    def test_stats_accounting(self):
        h = TLBHierarchy(DEFAULT_PARAMS)
        for a in (0x1000, 0x1000, 0x2000):
            h.translate(a, SHIFT_4K)
        s = h.stats
        assert s.accesses == 3
        assert s.l1_hits + s.l2_hits + s.walks == 3


class TestTraceGeneration:
    def test_respects_footprint(self):
        spec = TraceSpec(footprint_bytes=1 << 20)
        addrs = generate_addresses(spec, 1000, seed=0)
        assert addrs.max() < (1 << 20)
        assert addrs.min() >= 0

    def test_hot_set_concentration(self):
        spec = TraceSpec(footprint_bytes=64 << 20, hot_fraction=0.01,
                         hot_weight=0.9, stride_locality=0.0)
        addrs = generate_addresses(spec, 50_000, seed=0)
        pages = addrs // 4096
        hot_limit = (64 << 20) // 4096 * 0.01
        hot_share = np.mean(pages < hot_limit)
        assert hot_share > 0.85

    def test_deterministic_by_seed(self):
        spec = TraceSpec(footprint_bytes=1 << 20)
        a = generate_addresses(spec, 100, seed=7)
        b = generate_addresses(spec, 100, seed=7)
        assert (a == b).all()

    def test_line_aligned(self):
        spec = TraceSpec(footprint_bytes=1 << 20)
        addrs = generate_addresses(spec, 100, seed=0)
        assert (addrs % 64 == 0).all()

    def test_spec_validation(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            TraceSpec(footprint_bytes=0)
        with pytest.raises(ConfigurationError):
            TraceSpec(footprint_bytes=4096, hot_weight=1.5)
