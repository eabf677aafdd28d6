"""ContiguitasKernel: confinement, resizing, pin-migration, HW mode."""

import pytest

from repro.core import ContiguitasConfig, ContiguitasKernel, PlacementPolicy
from repro.errors import OutOfMemoryError
from repro.mm import AllocSource, MigrateType
from repro.mm import vmstat as ev
from repro.units import MAX_ORDER, MiB, PAGEBLOCK_FRAMES

from conftest import churn, make_contiguitas


def test_boot_layout(contiguitas):
    k = contiguitas
    assert k.movable.nr_blocks == k.layout.movable_blocks
    assert k.unmovable.nr_blocks == k.layout.unmovable_blocks
    assert k.movable.end_block == k.unmovable.start_block
    k.check_consistency()


def test_user_allocation_lands_in_movable_region(contiguitas):
    h = contiguitas.alloc_pages(0)
    assert not contiguitas.layout.in_unmovable(h.pfn)
    assert h.migratetype is MigrateType.MOVABLE


def test_kernel_allocation_lands_in_unmovable_region(contiguitas):
    for source in (AllocSource.NETWORKING, AllocSource.SLAB,
                   AllocSource.PAGETABLE, AllocSource.FILESYSTEM):
        h = contiguitas.alloc_pages(0, source=source)
        assert contiguitas.layout.in_unmovable(h.pfn), source


def test_reclaimable_slab_confined_too(contiguitas):
    h = contiguitas.alloc_pages(0, source=AllocSource.SLAB,
                                migratetype=MigrateType.RECLAIMABLE)
    assert contiguitas.layout.in_unmovable(h.pfn)
    assert h.migratetype is MigrateType.UNMOVABLE  # coerced to region type


def test_no_fallback_between_regions(contiguitas):
    assert not contiguitas.movable.fallback_enabled
    assert not contiguitas.unmovable.fallback_enabled
    assert contiguitas.stat[ev.PAGEBLOCK_STEAL] == 0


def test_placement_bias_away_from_border(contiguitas):
    """Unmovable allocations should sit at the top of memory, far from
    the region boundary."""
    h = contiguitas.alloc_pages(0, source=AllocSource.SLAB)
    top_block = contiguitas.mem.npageblocks - 1
    assert contiguitas.mem.pageblock_of(h.pfn) == top_block


def test_pin_migrates_into_unmovable_region(contiguitas):
    h = contiguitas.alloc_pages(0)
    assert not contiguitas.layout.in_unmovable(h.pfn)
    contiguitas.pin_pages(h)
    assert contiguitas.layout.in_unmovable(h.pfn)
    assert h.pinned
    assert contiguitas.stat[ev.PIN_MIGRATIONS] == 1
    assert contiguitas.confinement_violations() == 0


def test_pin_migration_places_near_border(contiguitas):
    """Pin-migrated pages skew short-lived: they go next to the boundary."""
    h = contiguitas.alloc_pages(0)
    contiguitas.pin_pages(h)
    assert contiguitas.mem.pageblock_of(h.pfn) == \
        contiguitas.layout.boundary_block


def test_unpin_and_free_returns_to_unmovable_lists(contiguitas):
    h = contiguitas.alloc_pages(0)
    contiguitas.pin_pages(h)
    contiguitas.unpin_pages(h)
    contiguitas.free_pages(h)
    contiguitas.check_consistency()


def test_unmovable_region_expands_under_demand():
    k = make_contiguitas(mem_mib=32)
    initial = k.layout.unmovable_blocks
    # Demand far beyond the initial unmovable region.
    want = (initial + 4) * PAGEBLOCK_FRAMES
    handles = [k.alloc_pages(0, source=AllocSource.NETWORKING)
               for _ in range(want)]
    assert k.layout.unmovable_blocks > initial
    assert k.stat[ev.REGION_EXPAND] > 0
    assert k.confinement_violations() == 0
    k.check_consistency()


def test_expansion_evacuates_movable_pages():
    k = make_contiguitas(mem_mib=32)
    # Put movable pages right at the boundary: expansion must move them.
    movable = [k.alloc_pages(0) for _ in range(k.movable.nr_frames)]
    for h in movable[: len(movable) // 2]:
        k.free_pages(h)
    want = (k.layout.unmovable_blocks + 2) * PAGEBLOCK_FRAMES
    for _ in range(want):
        k.alloc_pages(0, source=AllocSource.SLAB)
    assert k.stat[ev.REGION_EXPAND] > 0
    assert k.confinement_violations() == 0


def test_resizer_shrinks_idle_unmovable_region():
    k = make_contiguitas(mem_mib=64, initial_unmovable_fraction=0.5)
    initial = k.layout.unmovable_blocks
    for _ in range(50):
        k.advance(200_000)  # plenty of idle resize checks
    assert k.layout.unmovable_blocks < initial
    assert k.stat[ev.REGION_SHRINK] > 0
    k.check_consistency()


def test_shrink_blocked_by_occupied_boundary_without_hw():
    k = make_contiguitas(mem_mib=32, initial_unmovable_fraction=0.25,
                         placement=PlacementPolicy(bias_enabled=False))
    # Occupy the boundary block directly (bias off, prefer low).
    h = k.unmovable.alloc(0, MigrateType.UNMOVABLE, AllocSource.SLAB,
                          prefer="low")
    assert k.mem.pageblock_of(h) == k.layout.boundary_block
    assert not k._shrink_one()


def test_shrink_with_hw_migrates_boundary_occupants():
    k = make_contiguitas(mem_mib=32, initial_unmovable_fraction=0.25,
                         hw_enabled=True)
    pfn = k.unmovable.alloc(0, MigrateType.UNMOVABLE, AllocSource.NETWORKING,
                            prefer="low")
    k.handles.register(pfn, 0, MigrateType.UNMOVABLE,
                       AllocSource.NETWORKING, 0)
    assert k.mem.pageblock_of(pfn) == k.layout.boundary_block
    assert k._shrink_one()
    assert k.stat[ev.HW_MIGRATIONS] >= 1
    k.check_consistency()


def test_contiguity_recoverable_after_churn(rng):
    """The paper's headline: on Contiguitas, contiguity is always
    *recoverable* — compaction with a real budget can assemble a 2 MiB
    block because no unmovable page blocks it (a THP fault's light-touch
    attempt may still fall back under extreme non-reclaimable pressure,
    just like on real kernels)."""
    k = make_contiguitas(mem_mib=32)
    churn(k, rng, steps=3000, unmovable_fraction=0.3, fill_cache=True,
          cache_churn=0.5)
    h = k.alloc_pages(order=9, compact_budget=200_000)
    assert h is not None and h.nframes == 512


def test_gigapage_candidates_restricted_to_movable_region():
    k = make_contiguitas(mem_mib=32)
    candidates = k._contig_candidates(PAGEBLOCK_FRAMES * 2)
    boundary = k.layout.boundary_pfn
    assert candidates
    assert all(end <= boundary for _, end in candidates)


def test_unmovable_oom_when_region_cannot_grow():
    k = make_contiguitas(mem_mib=8)
    # Exhaust movable with unreclaimable user pages so expansion fails.
    user = []
    try:
        while True:
            user.append(k.alloc_pages(0))
    except OutOfMemoryError:
        pass
    with pytest.raises(OutOfMemoryError):
        while True:
            k.alloc_pages(0, source=AllocSource.NETWORKING)


def test_confinement_holds_under_heavy_churn(rng):
    k = make_contiguitas(mem_mib=32)
    churn(k, rng, steps=4000, unmovable_fraction=0.3, pin_fraction=0.05,
          fill_cache=True, cache_churn=0.5)
    assert k.confinement_violations() == 0
    k.check_consistency()
