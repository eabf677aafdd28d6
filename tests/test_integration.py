"""Cross-module integration scenarios: the paper's stories end to end."""

import pytest

from repro.analysis import movable_potential, unmovable_block_fraction
from repro.core.hwext import HwMigrationEngine
from repro.mm import AllocSource
from repro.units import LINES_PER_PAGE, PAGEBLOCK_FRAMES
from repro.workloads import Workload
from repro.workloads.services import CACHE_B

from conftest import make_contiguitas, make_linux


def test_two_kernels_same_churn_ranked_by_contiguity(rng):
    """The paper's hierarchy under memory-full churn: Contiguitas keeps
    more recoverable contiguity than Linux."""
    import random

    from repro.errors import OutOfMemoryError

    def drive(kernel, steps=4000):
        """Memory-full churn (production regime), tolerant of
        allocation failures."""
        from repro.mm import vmstat as ev

        rng = random.Random(17)
        # Fill with page cache until the kernel has to reclaim.
        before = kernel.stat[ev.PAGES_RECLAIMED]
        while (kernel.free_frames() > 0
               and kernel.stat[ev.PAGES_RECLAIMED] == before):
            kernel.alloc_pages(0, reclaimable=True)
        live = []
        unmovable_ooms = 0
        for _ in range(steps):
            try:
                kernel.alloc_pages(0, reclaimable=True)  # cache churn
            except OutOfMemoryError:
                pass
            if live and rng.random() < 0.45:
                kernel.free_pages(live.pop(rng.randrange(len(live))))
                continue
            try:
                if rng.random() < 0.3:
                    live.append(kernel.alloc_pages(
                        0, source=rng.choice([AllocSource.NETWORKING,
                                              AllocSource.SLAB])))
                else:
                    live.append(kernel.alloc_pages(0))
            except OutOfMemoryError:
                unmovable_ooms += 1
                if live:
                    kernel.free_pages(live.pop())
        return unmovable_ooms

    results = {}
    ooms = {}
    for name, kernel in (
        ("linux", make_linux(mem_mib=64)),
        ("contiguitas", make_contiguitas(mem_mib=64)),
    ):
        ooms[name] = drive(kernel)
        results[name] = movable_potential(kernel.mem, PAGEBLOCK_FRAMES)
    # Both kernels serve the demand, and Contiguitas preserves more
    # coarse contiguity than Linux.
    assert ooms == {"linux": 0, "contiguitas": 0}
    assert results["contiguitas"] > results["linux"]


def test_full_service_lifecycle_on_contiguitas():
    """Deploy, churn, restart, redeploy — confinement and consistency
    hold across the whole arc, and the second deployment still gets
    huge pages."""
    kernel = make_contiguitas(mem_mib=64)
    first = Workload(kernel, CACHE_B, seed=3)
    first.start()
    for _ in range(150):
        first.step()
    first.stop()
    kernel.check_consistency()
    assert kernel.confinement_violations() == 0

    second = Workload(kernel, CACHE_B, seed=4)
    second.start()
    assert second.huge_coverage()["2m"] > 0.5
    kernel.check_consistency()


def test_hw_engine_paired_with_kernel_shrink():
    """Contiguitas-HW migrations as the kernel uses them: unmovable pages
    at the boundary move deeper, the region shrinks, and the functional
    HW engine agrees that redirection served every access."""
    kernel = make_contiguitas(mem_mib=32, hw_enabled=True,
                              initial_unmovable_fraction=0.5)
    engine = HwMigrationEngine()
    handles = [kernel.alloc_pages(0, source=AllocSource.NETWORKING)
               for _ in range(600)]
    for h in handles[::2]:
        kernel.free_pages(h)
    before = kernel.layout.unmovable_blocks
    for _ in range(40):
        kernel.advance(200_000)
    assert kernel.layout.unmovable_blocks < before
    # Mirror one of those migrations through the functional HW engine:
    # accesses mid-copy are redirected, never blocked.
    engine.submit_migrate(1000, 2000)
    assert engine.copy_lines(1000, max_lines=LINES_PER_PAGE // 2) > 0
    assert engine.access(1000, 0) == 2000
    assert engine.access(1000, LINES_PER_PAGE - 1) == 1000
    engine.copy_lines(1000)
    engine.submit_clear(1000)
    assert engine.stats.migrations == 1
    assert engine.stats.lines_copied == LINES_PER_PAGE
    kernel.check_consistency()


def test_pinning_story_across_kernels():
    """Zero-copy pins: Linux freezes movable blocks forever; Contiguitas
    migrates-then-pins and the movable space stays clean."""
    linux = make_linux(mem_mib=32)
    cont = make_contiguitas(mem_mib=32)
    for kernel in (linux, cont):
        pins = []
        for _ in range(40):
            h = kernel.alloc_pages(0)
            kernel.pin_pages(h)
            pins.append(h)
    linux_poisoned = unmovable_block_fraction(linux.mem, PAGEBLOCK_FRAMES)
    cont_region_share = cont.layout.unmovable_blocks / cont.mem.npageblocks
    assert cont.confinement_violations() == 0
    # Linux's pins landed in general-purpose memory; Contiguitas kept
    # them inside its (small) region.
    assert linux_poisoned > 0
    assert cont_region_share <= 0.25
