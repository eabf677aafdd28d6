"""Range evacuation (alloc_contig_range building block)."""

import pytest

from repro.mm import (
    AllocSource,
    BuddyAllocator,
    HandleRegistry,
    MigrateType,
    PageHandle,
    PageblockTable,
    PhysicalMemory,
    RangeEvacuator,
    VmStat,
)
from repro.units import MiB, PAGEBLOCK_FRAMES


def build(mem_mib=8):
    mem = PhysicalMemory(MiB(mem_mib))
    table = PageblockTable(mem)
    stat = VmStat()
    buddy = BuddyAllocator(mem, table, stat)
    buddy.seed_free()
    return mem, buddy, HandleRegistry(mem), RangeEvacuator(mem, stat)


def alloc_tracked(buddy, handles, order=0, mt=MigrateType.MOVABLE,
                  source=AllocSource.USER, pinned=False):
    pfn = buddy.alloc(order, mt, source, pinned=pinned)
    return handles.register(pfn, order, mt, source, 0, pinned)


def test_evacuate_empty_range_succeeds():
    mem, buddy, handles, evac = build()
    result = evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES)
    assert result.success
    assert result.pages_migrated == 0


def test_evacuate_moves_movable_pages_out():
    mem, buddy, handles, evac = build()
    inside = [alloc_tracked(buddy, handles) for _ in range(20)]
    assert all(h.pfn < PAGEBLOCK_FRAMES for h in inside)
    result = evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES)
    assert result.success
    assert result.pages_migrated == 20
    assert all(h.pfn >= PAGEBLOCK_FRAMES for h in inside)
    assert not mem.allocated_mask()[:PAGEBLOCK_FRAMES].any()
    buddy.check_consistency()


def test_evacuated_range_merges_to_full_block():
    mem, buddy, handles, evac = build()
    for _ in range(20):
        alloc_tracked(buddy, handles)
    evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES)
    # The emptied block should be one pageblock-order free block again.
    assert mem.free_order[0] == 9


def test_evacuate_blocked_by_unmovable():
    mem, buddy, handles, evac = build()
    blocker = alloc_tracked(buddy, handles, mt=MigrateType.UNMOVABLE,
                            source=AllocSource.NETWORKING)
    result = evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES)
    assert not result.success
    assert result.blocked_by == blocker.pfn


def test_evacuate_blocked_by_pinned():
    mem, buddy, handles, evac = build()
    blocker = alloc_tracked(buddy, handles, pinned=True)
    result = evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES)
    assert not result.success
    assert result.blocked_by == blocker.pfn


def test_hardware_assisted_evacuation_moves_unmovable():
    mem, buddy, handles, evac = build()
    blocker = alloc_tracked(buddy, handles, mt=MigrateType.UNMOVABLE,
                            source=AllocSource.NETWORKING)
    result = evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES,
                           hardware_assisted=True)
    assert result.success
    assert blocker.pfn >= PAGEBLOCK_FRAMES
    # HW migration has no downtime.
    assert result.downtime_cycles == 0


def test_hardware_assisted_preserves_pin_state():
    mem, buddy, handles, evac = build()
    blocker = alloc_tracked(buddy, handles, pinned=True)
    result = evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES,
                           hardware_assisted=True)
    assert result.success
    assert blocker.pinned
    assert mem.is_pinned(blocker.pfn)


def test_evacuate_fails_when_no_space_outside():
    mem, buddy, handles, evac = build(mem_mib=2)  # single pageblock
    alloc_tracked(buddy, handles)
    result = evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES)
    assert not result.success


def test_capture_range_takes_all_free_blocks():
    mem, buddy, handles, evac = build()
    evac.capture_range(buddy, 0, PAGEBLOCK_FRAMES)
    assert buddy.nr_free == buddy.nr_frames - PAGEBLOCK_FRAMES
    assert mem.free_order[0] == -1
    buddy.check_consistency()


def test_downtime_accounted_for_software_moves():
    mem, buddy, handles, evac = build()
    alloc_tracked(buddy, handles)
    result = evac.evacuate(buddy, handles, 0, PAGEBLOCK_FRAMES)
    assert result.downtime_cycles > 0
