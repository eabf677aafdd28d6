"""Compaction: scanners, unmovable skipping, downtime accounting."""

import pytest

from repro.errors import MigrationError
from repro.mm import (
    AllocationInfo,
    AllocSource,
    BuddyAllocator,
    Compactor,
    HandleRegistry,
    MigrateType,
    MigrationCostModel,
    PageHandle,
    PageblockTable,
    PhysicalMemory,
    VmStat,
    can_migrate_sw,
    move_allocation,
)
from repro.units import MAX_ORDER, MiB

from conftest import live_handles


def build(mem_mib=8):
    mem = PhysicalMemory(MiB(mem_mib))
    table = PageblockTable(mem)
    stat = VmStat()
    buddy = BuddyAllocator(mem, table, stat)
    buddy.seed_free()
    handles = HandleRegistry(mem)
    compactor = Compactor(mem, stat, MigrationCostModel(), victim_cores=7)
    return mem, buddy, handles, compactor


def fragment(buddy, handles, keep_every=2, source=AllocSource.USER):
    """Checkerboard all of memory: allocate every frame, then free every
    keep_every-th, so no free pageblock exists anywhere."""
    pfns = []
    while True:
        pfn = buddy.alloc(0, MigrateType.MOVABLE, source)
        if pfn is None:
            break
        pfns.append(pfn)
    live = []
    for i, pfn in enumerate(pfns):
        if i % keep_every == 0:
            handles.register(pfn, 0, MigrateType.MOVABLE, source, 0)
            live.append(pfn)
        else:
            buddy.free(pfn)
    return live


def test_compaction_creates_pageblock():
    mem, buddy, handles, compactor = build()
    fragment(buddy, handles)
    # The low blocks are checkered: no free pageblock-order block there
    # until compaction consolidates.
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER)
    assert result.satisfied
    assert result.pages_migrated > 0
    assert buddy.largest_free_order() == MAX_ORDER
    buddy.check_consistency()


def test_compaction_moves_pages_toward_high_addresses():
    mem, buddy, handles, compactor = build()
    live = fragment(buddy, handles)
    before = sorted(h.pfn for h in live_handles(handles))
    compactor.compact(buddy, handles, target_order=MAX_ORDER)
    after = sorted(h.pfn for h in live_handles(handles))
    assert sum(after) > sum(before)


def test_compaction_updates_handles():
    mem, buddy, handles, compactor = build()
    fragment(buddy, handles)
    compactor.compact(buddy, handles, target_order=MAX_ORDER)
    for handle in live_handles(handles):
        info = mem.allocation_info(handle.pfn)
        assert info.pfn == handle.pfn  # head still matches


def test_compaction_skips_unmovable():
    mem, buddy, handles, compactor = build()
    # Unmovable page in the first block: that block can never be emptied.
    un = buddy.alloc(0, MigrateType.UNMOVABLE, AllocSource.NETWORKING)
    handles.register(un, 0, MigrateType.UNMOVABLE, AllocSource.NETWORKING, 0)
    fragment(buddy, handles)
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER)
    assert result.pages_skipped_unmovable >= 1
    assert mem.is_allocated(un)
    assert mem.allocation_info(un).source is AllocSource.NETWORKING


def test_compaction_skips_pinned():
    mem, buddy, handles, compactor = build()
    pfn = buddy.alloc(0, MigrateType.MOVABLE, AllocSource.USER, pinned=True)
    handles.register(pfn, 0, MigrateType.MOVABLE, AllocSource.USER, 0,
                     pinned=True)
    fragment(buddy, handles)
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER)
    assert mem.allocation_info(pfn).pfn == pfn  # did not move
    assert result.pages_skipped_unmovable >= 1


def test_compaction_downtime_scales_with_victims():
    results = []
    for victims in (1, 7):
        mem, buddy, handles, compactor = build()
        compactor.victim_cores = victims
        fragment(buddy, handles)
        results.append(compactor.compact(buddy, handles,
                                         target_order=MAX_ORDER))
    assert results[0].pages_migrated == results[1].pages_migrated
    assert results[1].downtime_cycles > results[0].downtime_cycles


def test_compaction_respects_migration_budget():
    mem, buddy, handles, compactor = build()
    fragment(buddy, handles)
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER,
                               max_migrations=10)
    assert result.pages_migrated <= 10


def test_compaction_noop_when_already_satisfied():
    mem, buddy, handles, compactor = build()
    result = compactor.compact(buddy, handles, target_order=MAX_ORDER)
    assert result.satisfied
    assert result.pages_migrated == 0


def test_cost_model_linear_in_victims():
    cost = MigrationCostModel()
    d1 = cost.downtime_cycles(1)
    d8 = cost.downtime_cycles(8)
    assert d8 - d1 == 7 * cost.per_victim_cycles


class TestCanMigrateSw:
    """The software-movability predicate that every skip path keys on:
    only plain, unpinned user memory is software-movable (§2.1)."""

    def _info(self, **kwargs) -> AllocationInfo:
        defaults = dict(pfn=0, order=0, migratetype=MigrateType.MOVABLE,
                        source=AllocSource.USER, pinned=False, birth=0)
        defaults.update(kwargs)
        return AllocationInfo(**defaults)

    def test_plain_user_memory_movable(self):
        assert can_migrate_sw(self._info())

    def test_pinned_user_memory_not_movable(self):
        assert not can_migrate_sw(self._info(pinned=True))

    def test_every_kernel_source_not_movable(self):
        for source in AllocSource:
            if source is AllocSource.USER:
                continue
            assert not can_migrate_sw(self._info(source=source)), source

    def test_poisoned_placeholder_not_movable(self):
        # Hard-offlined frames are parked as KERNEL_OTHER placeholders,
        # so compaction and evacuation route around them for free.
        info = self._info(source=AllocSource.KERNEL_OTHER, poisoned=True)
        assert not can_migrate_sw(info)


class TestMoveAllocationSkipPaths:
    def test_pinned_page_raises(self):
        mem, buddy, handles, _ = build(mem_mib=4)
        src = buddy.alloc(0, MigrateType.MOVABLE, AllocSource.USER,
                          pinned=True)
        dst = buddy.take_free_split(buddy.free_heads_in(0, mem.nframes)[-1],
                                    0)
        with pytest.raises(MigrationError, match="pinned=True"):
            move_allocation(mem, src, dst)
        assert mem.is_allocated(src)

    def test_device_visible_source_raises(self):
        mem, buddy, handles, _ = build(mem_mib=4)
        src = buddy.alloc(0, MigrateType.UNMOVABLE, AllocSource.NETWORKING)
        dst = buddy.take_free_split(buddy.free_heads_in(0, mem.nframes)[-1],
                                    0)
        with pytest.raises(MigrationError, match="NETWORKING"):
            move_allocation(mem, src, dst)
        assert mem.allocation_info(src).source is AllocSource.NETWORKING

    def test_hardware_assist_moves_pinned_page(self):
        # Contiguitas-HW relocates even pinned/device-visible memory
        # (paper §3.3); the software-only guard is bypassed.
        mem, buddy, handles, _ = build(mem_mib=4)
        src = buddy.alloc(0, MigrateType.MOVABLE, AllocSource.USER,
                          pinned=True)
        dst = buddy.take_free_split(buddy.free_heads_in(0, mem.nframes)[-1],
                                    0)
        info = move_allocation(mem, src, dst, hardware_assisted=True)
        assert info.pinned
        assert mem.is_allocated(dst)
        assert mem.allocation_info(dst).pinned
