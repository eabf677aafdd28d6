"""Workload driver internals: diurnal traffic, stragglers, buffer orders,
restart residue."""

import dataclasses

import pytest

from repro.mm import vmstat as ev
from repro.units import PAGEBLOCK_FRAMES
from repro.workloads import Workload
from repro.workloads.services import CACHE_B

from conftest import make_linux


def spec_with(**kwargs):
    return dataclasses.replace(CACHE_B, **kwargs)


class TestDiurnalTraffic:
    def test_traffic_factor_oscillates(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, spec_with(diurnal_amplitude=0.5,
                                  diurnal_period_steps=40), seed=0)
        w.start()
        factors = []
        for _ in range(40):
            w.step()
            factors.append(w._traffic)
        assert max(factors) > 1.3
        assert min(factors) < 0.7

    def test_zero_amplitude_is_flat(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, spec_with(diurnal_amplitude=0.0), seed=0)
        w.start()
        for _ in range(10):
            w.step()
            assert w._traffic == 1.0


class TestBufferOrders:
    def test_mixed_orders_allocated(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, spec_with(net_buffer_orders=(0, 2)), seed=1)
        w.start()
        for _ in range(60):
            w.step()
        orders = {k.handles.resolve(slot).order
                  for slot in w.netpool.transient}
        assert orders >= {0, 2}

    def test_single_order_respected(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, spec_with(net_buffer_orders=(1,)), seed=1)
        w.start()
        for _ in range(40):
            w.step()
        assert {k.handles.resolve(slot).order
                for slot in w.netpool.transient} == {1}


class TestStragglers:
    def test_stragglers_outlive_transients(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, spec_with(net_lifetime_steps=5.0,
                                  net_straggler_fraction=0.5,
                                  net_straggler_lifetime_steps=10_000.0),
                     seed=1)
        w.start()
        for _ in range(200):
            w.step()
        # With transients dying at ~5 steps, the survivors are stragglers:
        # roughly rate * straggler_fraction * elapsed of them.
        live = len(w.netpool.transient)
        assert live > 50


class TestRestartResidue:
    def _run_and_stop(self, residue, keep_cache):
        k = make_linux(mem_mib=64)
        w = Workload(k, CACHE_B, seed=3)
        w.start()
        for _ in range(150):
            w.step()
        w.stop(kernel_residue=residue, keep_cache=keep_cache)
        return k

    def test_zero_residue_and_dropped_cache_frees_most(self):
        k = self._run_and_stop(residue=0.0, keep_cache=False)
        # Only the persistent rings are gone too (tear_down): almost all
        # memory returns.
        assert k.free_frames() > 0.9 * k.mem.nframes

    def test_residue_leaks_unmovable(self):
        clean = self._run_and_stop(residue=0.0, keep_cache=False)
        dirty = self._run_and_stop(residue=0.9, keep_cache=False)
        assert int(dirty.mem.unmovable_mask().sum()) > \
            int(clean.mem.unmovable_mask().sum())

    def test_kept_cache_stays_reclaimable(self):
        k = self._run_and_stop(residue=0.0, keep_cache=True)
        before = k.free_frames()
        assert len(k.reclaim_lru) > 0
        # A fresh demand can still evict it.
        freed = k.reclaim(1000)
        assert freed >= 1000
        assert k.free_frames() > before

    def test_pins_never_leak(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, spec_with(pin_rate_per_gib=20.0,
                                  pin_lifetime_steps=10_000.0), seed=3)
        w.start()
        for _ in range(100):
            w.step()
        assert int(k.mem.pinned_mask().sum()) > 0
        w.stop(kernel_residue=1.0)
        # Process exit unpins everything, even at full kernel residue.
        assert int(k.mem.pinned_mask().sum()) == 0
