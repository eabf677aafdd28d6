"""Event queue, caches, and the slice hash."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    ArchParams,
    DEFAULT_PARAMS,
    EventQueue,
    SetAssocCache,
    SlicedLLC,
    slice_of,
)


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        out = []
        q.at(10, lambda: out.append("b"))
        q.at(5, lambda: out.append("a"))
        q.at(20, lambda: out.append("c"))
        q.run()
        assert out == ["a", "b", "c"]
        assert q.now == 20

    def test_fifo_for_same_cycle(self):
        q = EventQueue()
        out = []
        q.at(5, lambda: out.append(1))
        q.at(5, lambda: out.append(2))
        q.run()
        assert out == [1, 2]

    def test_after_is_relative(self):
        q = EventQueue()
        q.at(100, lambda: q.after(50, lambda: None))
        q.run()
        assert q.now == 150

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.at(10, lambda: None)
        q.run()
        with pytest.raises(ConfigurationError):
            q.at(5, lambda: None)

    def test_run_until_stops_clock(self):
        q = EventQueue()
        fired = []
        q.at(10, lambda: fired.append(1))
        q.at(100, lambda: fired.append(2))
        q.run(until=50)
        assert fired == [1]
        assert q.now == 50
        assert len(q) == 1


class TestSetAssocCache:
    def test_hit_after_fill(self):
        c = SetAssocCache(64 * 64, ways=4)  # 64 lines, 16 sets
        assert not c.access(5)
        assert c.access(5)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction_within_set(self):
        c = SetAssocCache(4 * 64, ways=4)  # one set of 4 ways
        for line in range(4):
            c.access(line * c.nsets)  # all map to set 0
        c.access(0)  # refresh line 0
        c.access(4 * c.nsets)  # evicts LRU = line 1*nsets
        assert c.contains(0)
        assert not c.contains(1 * c.nsets)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssocCache(100, ways=3)


class TestSlicedLLC:
    def test_hash_spreads_page_lines(self):
        """Consecutive lines of one page should span several slices."""
        slices = {slice_of(1000 * 64 + i, 8) for i in range(64)}
        assert len(slices) >= 4

    def test_hash_is_stable(self):
        assert slice_of(12345, 8) == slice_of(12345, 8)

    def test_ring_distance_wraps(self):
        llc = SlicedLLC(DEFAULT_PARAMS)
        assert llc.ring_distance(0, 7) == 1  # around the ring
        assert llc.ring_distance(0, 4) == 4
        assert llc.ring_distance(3, 3) == 0

    def test_cross_slice_write_cost(self):
        llc = SlicedLLC(DEFAULT_PARAMS)
        same = llc.cross_slice_write_cycles(2, 2)
        far = llc.cross_slice_write_cycles(0, 4)
        assert same == 0
        assert far == 2 * 4 * DEFAULT_PARAMS.ring_hop_cycles

    def test_access_routes_to_home_slice(self):
        llc = SlicedLLC(DEFAULT_PARAMS)
        hit, idx = llc.access(777)
        assert not hit
        assert idx == llc.home_slice(777)
        hit2, idx2 = llc.access(777)
        assert hit2 and idx2 == idx


class TestArchParams:
    def test_defaults_match_table1(self):
        p = DEFAULT_PARAMS
        assert p.cores == 8
        assert p.l1_tlb_entries == 64
        assert p.l2_tlb_entries == 1536
        assert p.l2_tlb_ways == 16
        assert p.l3_slice_size == 2 * 1024 * 1024
        assert p.hw_table_entries == 16
        assert p.freq_ghz == 2.0
        assert p.invlpg_cycles == 250

    def test_cycles_to_us(self):
        assert DEFAULT_PARAMS.cycles_to_us(2000) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ArchParams(cores=0)
