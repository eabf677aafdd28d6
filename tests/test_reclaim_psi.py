"""Reclaim LRU, watermarks, and PSI tracking."""

import pytest

from repro.errors import ConfigurationError
from repro.mm import (
    HandleRegistry,
    PhysicalMemory,
    PsiTracker,
    ReclaimLRU,
    VmStat,
    Watermarks,
)
from repro.mm import vmstat as ev
from repro.mm.handle import PageHandle
from repro.mm.page import AllocSource, MigrateType
from repro.units import MiB

def lru_with(*pages, stat=None):
    """A reclaim LRU over a fresh registry, and one handle registered
    there per ``(pfn, order)`` of *pages*."""
    registry = HandleRegistry(PhysicalMemory(MiB(4)))
    handles = [registry.register(
        pfn, order, MigrateType.MOVABLE, AllocSource.USER, 0)
        for pfn, order in pages]
    return ReclaimLRU(VmStat() if stat is None else stat, registry), handles


class TestWatermarks:
    def test_ordering(self):
        wm = Watermarks.for_frames(100_000)
        assert wm.min < wm.low < wm.high

    def test_scales_with_size(self):
        small = Watermarks.for_frames(10_000)
        big = Watermarks.for_frames(100_000)
        assert big.low == 10 * small.low

    def test_minimum_floor(self):
        wm = Watermarks.for_frames(10)
        assert wm.min >= 1 and wm.low >= 2 and wm.high >= 3


class TestReclaimLRU:
    def test_reclaims_oldest_first(self):
        stat = VmStat()
        lru, handles = lru_with(*((i, 0) for i in range(5)), stat=stat)
        freed = []
        for h in handles:
            lru.register(h)
        lru.reclaim(freed.append, freed.extend, target_frames=2)
        assert freed == handles[:2]
        assert stat[ev.PAGES_RECLAIMED] == 2

    def test_forget_skips_handle(self):
        lru, (a,) = lru_with((0, 0))
        freed = []
        lru.register(a)
        lru.forget(a)
        assert lru.reclaim(freed.append, freed.extend, 10) == 0
        assert freed == []

    def test_already_freed_handles_skipped(self):
        lru, (a, b) = lru_with((0, 0), (1, 0))
        lru.register(a)
        lru.register(b)
        a.freed = True
        freed = []
        got = lru.reclaim(freed.append, freed.extend, 1)
        assert got == 1
        assert freed == [b]

    def test_reclaim_counts_large_orders(self):
        lru, (big,) = lru_with((0, 9))
        lru.register(big)
        assert lru.reclaim(lambda h: None, lambda pfns: None, 1) == 512


class TestPsi:
    def test_no_stall_means_zero_pressure(self):
        psi = PsiTracker()
        assert psi.sample(1000) == 0.0

    def test_full_stall_approaches_hundred(self):
        psi = PsiTracker(halflife_ticks=100)
        for _ in range(100):
            psi.record_stall(1000)
            psi.sample(1000)
        assert psi.pressure > 90

    def test_pressure_decays(self):
        psi = PsiTracker(halflife_ticks=1000)
        psi.record_stall(500)
        p1 = psi.sample(1000)
        p2 = psi.sample(1000)
        assert p1 > p2 > 0

    def test_pressure_capped_at_100(self):
        psi = PsiTracker(halflife_ticks=10)
        psi.record_stall(10_000)
        assert psi.sample(100) <= 100.0

    def test_negative_stall_rejected(self):
        psi = PsiTracker()
        with pytest.raises(ConfigurationError):
            psi.record_stall(-1)

    def test_bad_halflife_rejected(self):
        with pytest.raises(ConfigurationError):
            PsiTracker(halflife_ticks=0)

    def test_total_stall_accumulates(self):
        psi = PsiTracker()
        psi.record_stall(5)
        psi.record_stall(7)
        assert psi.total_stall_ticks == 12
