"""Memory snapshots and the RDMA (pin-heavy) workload."""

import os

import pytest

from repro.analysis import (
    load_snapshot,
    save_snapshot,
    unmovable_block_fraction,
)
from repro.analysis.contiguity import movable_potential
from repro.errors import ConfigurationError
from repro.units import PAGEBLOCK_FRAMES
from repro.workloads import Workload
from repro.workloads.services import RDMA

from conftest import make_contiguitas, make_linux


class TestSnapshot:
    def test_roundtrip_preserves_scans(self, tmp_path, linux, rng):
        from conftest import churn

        churn(linux, rng, steps=800, unmovable_fraction=0.25)
        path = os.path.join(tmp_path, "scan.npz")
        save_snapshot(linux.mem, path, meta={"host": "sim-01"})
        snap = load_snapshot(path)
        assert snap.nframes == linux.mem.nframes
        assert snap.meta["host"] == "sim-01"
        assert snap.free_frames() == linux.mem.free_frames()
        # The analysis functions give identical answers on the snapshot.
        assert unmovable_block_fraction(snap, PAGEBLOCK_FRAMES) == \
            unmovable_block_fraction(linux.mem, PAGEBLOCK_FRAMES)
        assert movable_potential(snap, PAGEBLOCK_FRAMES) == \
            movable_potential(linux.mem, PAGEBLOCK_FRAMES)

    def test_snapshot_is_independent_copy(self, tmp_path, linux):
        h = linux.alloc_pages(0)
        path = os.path.join(tmp_path, "scan.npz")
        save_snapshot(linux.mem, path)
        snap = load_snapshot(path)
        linux.free_pages(h)
        assert snap.free_frames() == linux.mem.free_frames() - 1

    def test_bad_version_rejected(self, tmp_path, linux):
        import numpy as np

        path = os.path.join(tmp_path, "bad.npz")
        np.savez_compressed(path, version=np.array([99]),
                            flags=linux.mem.flags,
                            migratetype=linux.mem.migratetype,
                            source=linux.mem.source,
                            alloc_order=linux.mem.alloc_order)
        with pytest.raises(ConfigurationError):
            load_snapshot(path)


class TestRdmaWorkload:
    def test_pins_dominate_unmovable_mix(self):
        k = make_linux(mem_mib=64)
        w = Workload(k, RDMA, seed=2)
        w.start()
        for _ in range(300):
            w.step()
        # Long-lived pins: a large share of unmovable memory is pinned
        # user pages, not kernel allocations.
        pinned = int(k.mem.pinned_mask().sum())
        unmovable = int(k.mem.unmovable_mask().sum())
        assert pinned > 0.3 * unmovable

    def test_linux_pollution_vs_contiguitas_confinement(self):
        results = {}
        for name, kernel in (("linux", make_linux(mem_mib=64)),
                             ("contiguitas", make_contiguitas(mem_mib=64))):
            w = Workload(kernel, RDMA, seed=2)
            w.start()
            for _ in range(300):
                w.step()
            results[name] = unmovable_block_fraction(kernel.mem,
                                                     PAGEBLOCK_FRAMES)
            if name == "contiguitas":
                assert kernel.confinement_violations() == 0
                assert kernel.stat["pin_migrations"] > 0
        # The paper's §2.5 warning realised: RDMA pins scatter across
        # Linux's memory but stay confined on Contiguitas.
        assert results["contiguitas"] < results["linux"]
