"""Buddy allocator: split/merge, migrate-type lists, fallback stealing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FreelistDivergenceError
from repro.mm import (
    AllocSource,
    BuddyAllocator,
    MigrateType,
    PageblockTable,
    PhysicalMemory,
    VmStat,
)
from repro.mm import vmstat as ev
from repro.units import MAX_ORDER, MiB, PAGEBLOCK_FRAMES

from conftest import free_frames_by_type, free_list


def make_buddy(mem_mib=8, **kwargs):
    mem = PhysicalMemory(MiB(mem_mib))
    table = PageblockTable(mem)
    buddy = BuddyAllocator(mem, table, VmStat(), **kwargs)
    buddy.seed_free()
    return buddy


def test_seed_free_populates_everything():
    buddy = make_buddy()
    assert buddy.nr_free == buddy.nr_frames
    assert buddy.largest_free_order() == MAX_ORDER
    buddy.check_consistency()


def test_alloc_order0():
    buddy = make_buddy()
    pfn = buddy.alloc(0, MigrateType.MOVABLE)
    assert pfn == 0  # prefer=low, address ordered
    assert buddy.nr_free == buddy.nr_frames - 1
    assert buddy.mem.is_allocated(pfn)
    buddy.check_consistency()


def test_alloc_prefer_high():
    buddy = make_buddy(prefer="high")
    pfn = buddy.alloc(0, MigrateType.MOVABLE)
    assert pfn == buddy.nr_frames - 1
    buddy.check_consistency()


def test_alloc_splits_minimally():
    buddy = make_buddy()
    buddy.alloc(0, MigrateType.MOVABLE)
    # One pageblock was split into a ladder of orders 0..MAX_ORDER-1.
    sizes = [len(free_list(buddy, o, MigrateType.MOVABLE))
             for o in range(MAX_ORDER)]
    assert sizes == [1] * MAX_ORDER


def test_free_merges_back_to_pageblock():
    buddy = make_buddy()
    pfn = buddy.alloc(0, MigrateType.MOVABLE)
    buddy.free(pfn)
    assert buddy.nr_free == buddy.nr_frames
    assert buddy.largest_free_order() == MAX_ORDER
    assert len(free_list(buddy, MAX_ORDER, MigrateType.MOVABLE)) == \
        buddy.nr_blocks
    buddy.check_consistency()


def test_alloc_whole_pageblock():
    buddy = make_buddy()
    pfn = buddy.alloc(MAX_ORDER, MigrateType.MOVABLE)
    assert pfn % PAGEBLOCK_FRAMES == 0
    assert buddy.nr_free == buddy.nr_frames - PAGEBLOCK_FRAMES


def test_alloc_exhaustion_returns_none():
    buddy = make_buddy(mem_mib=2)
    got = [buddy.alloc(MAX_ORDER, MigrateType.MOVABLE) for _ in range(1)]
    assert got[0] is not None
    assert buddy.alloc(MAX_ORDER, MigrateType.MOVABLE) is None
    assert buddy.stat[ev.ALLOC_FAIL] == 1


def test_unmovable_fallback_steals_movable_pageblock():
    buddy = make_buddy()
    # All pageblocks start MOVABLE; an UNMOVABLE request must fall back.
    pfn = buddy.alloc(0, MigrateType.UNMOVABLE,
                      source=AllocSource.SLAB)
    assert pfn is not None
    assert buddy.stat[ev.ALLOC_FALLBACK] == 1
    assert buddy.stat[ev.PAGEBLOCK_STEAL] == 1
    # The whole block converted: remaining free pages moved lists.
    assert buddy.pageblocks.get(pfn) is MigrateType.UNMOVABLE
    buddy.check_consistency()


def test_fallback_disabled_confines():
    buddy = make_buddy(fallback_enabled=False)
    assert buddy.alloc(0, MigrateType.UNMOVABLE) is None
    assert buddy.stat[ev.ALLOC_FAIL] == 1


def test_freed_page_joins_current_pageblock_type():
    buddy = make_buddy()
    pfn = buddy.alloc(0, MigrateType.UNMOVABLE)  # steals block 0
    buddy.free(pfn)
    # Freed into the (now UNMOVABLE) block's list.
    assert len(free_list(buddy, MAX_ORDER, MigrateType.UNMOVABLE)) == 1
    buddy.check_consistency()


def test_free_onto_a_buddy_missing_from_its_list_is_a_typed_error():
    """The merge loop reads its guards once per call (ISSUE 21); a buddy
    whose ``free_order`` says free but which is on no list must still be
    refused with the error ``_remove_free`` raises."""
    buddy = make_buddy(label="zone")
    pfn = buddy.alloc(0, MigrateType.MOVABLE)
    assert pfn == 0 and buddy.mem.free_order[1] == 0
    assert free_list(buddy, 0, MigrateType.MOVABLE) == [1]
    buddy._unlink(MigrateType.MOVABLE, 1)      # list (order 0, MOVABLE)
    with pytest.raises(FreelistDivergenceError) as exc:
        buddy.free(pfn)
    assert exc.value.pfn == 1
    assert str(exc.value) == \
        "zone: free block not on list order=0 mt=1 (pfn 1)"
    with pytest.raises(FreelistDivergenceError) as exc:
        buddy.take_free_block(1)
    assert str(exc.value) == \
        "zone: free block not on list order=0 mt=1 (pfn 1)"


def test_take_free_block_and_split():
    buddy = make_buddy()
    head = min(free_list(buddy, MAX_ORDER, MigrateType.MOVABLE))
    got = buddy.take_free_split(head, 3)
    assert got == head
    assert buddy.mem.free_order[head] == -1
    # 2**MAX_ORDER - 2**3 frames returned to lists from this block.
    assert buddy.nr_free == buddy.nr_frames - 8
    buddy.check_consistency()


def test_take_free_reserves_without_marking():
    buddy = make_buddy()
    pfn = buddy.take_free(2, MigrateType.MOVABLE)
    assert pfn is not None
    assert not buddy.mem.is_allocated(pfn)
    assert buddy.nr_free == buddy.nr_frames - 4


def test_move_freepages_block_retags():
    buddy = make_buddy()
    moved = buddy.move_freepages_block(1, MigrateType.UNMOVABLE)
    assert moved == PAGEBLOCK_FRAMES
    assert buddy.pageblocks.get_block(1) is MigrateType.UNMOVABLE
    pfn = buddy.alloc(0, MigrateType.UNMOVABLE)
    assert buddy.mem.pageblock_of(pfn) == 1
    buddy.check_consistency()


def test_adopt_and_release_block():
    mem = PhysicalMemory(MiB(8))
    table = PageblockTable(mem)
    left = BuddyAllocator(mem, table, VmStat(), 0, 2, label="L")
    right = BuddyAllocator(mem, table, VmStat(), 2, 4, label="R")
    left.seed_free()
    right.seed_free()
    right.release_block(2)
    left.adopt_block(2, MigrateType.MOVABLE)
    assert left.nr_blocks == 3
    assert right.nr_blocks == 1
    assert left.nr_free == 3 * PAGEBLOCK_FRAMES
    assert right.nr_free == PAGEBLOCK_FRAMES
    left.check_consistency()
    right.check_consistency()


def test_merge_does_not_cross_allocator_boundary():
    mem = PhysicalMemory(MiB(8))
    table = PageblockTable(mem)
    left = BuddyAllocator(mem, table, VmStat(), 0, 2, label="L")
    right = BuddyAllocator(mem, table, VmStat(), 2, 4, label="R")
    left.seed_free()
    right.seed_free()
    pfn = left.alloc(0, MigrateType.MOVABLE)
    left.free(pfn)
    # All blocks intact, none migrated across the boundary.
    assert left.nr_free == 2 * PAGEBLOCK_FRAMES
    assert right.nr_free == 2 * PAGEBLOCK_FRAMES


def test_free_frames_by_type_accounting():
    buddy = make_buddy()
    buddy.alloc(0, MigrateType.UNMOVABLE)  # steal one block
    by_type = free_frames_by_type(buddy)
    assert sum(by_type.values()) == buddy.nr_free
    assert by_type[MigrateType.UNMOVABLE] == PAGEBLOCK_FRAMES - 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_churn_preserves_invariants(seed):
    """Property: arbitrary alloc/free sequences keep bookkeeping exact."""
    rng = random.Random(seed)
    buddy = make_buddy(mem_mib=4)
    live = []
    for _ in range(300):
        if live and rng.random() < 0.5:
            pfn = live.pop(rng.randrange(len(live)))
            buddy.free(pfn)
        else:
            order = rng.choice([0, 0, 0, 1, 2, 3, 9])
            mt = rng.choice(list(MigrateType))
            pfn = buddy.alloc(order, mt)
            if pfn is not None:
                live.append(pfn)
    buddy.check_consistency()
    allocated = sum(1 << int(buddy.mem.alloc_order[p]) for p in live)
    assert buddy.nr_free == buddy.nr_frames - allocated


# ---------------------------------------------------------------------------
# Bulk API: alloc_bulk vs the scalar path
# ---------------------------------------------------------------------------


def test_alloc_bulk_matches_scalar_sequence():
    """LIFO fast path: alloc_bulk pops the exact PFN sequence the scalar
    order-0 loop would have."""
    a = make_buddy(mem_mib=4)
    b = make_buddy(mem_mib=4)
    bulk = a.alloc_bulk(300, MigrateType.MOVABLE).tolist()
    scalar = [b.alloc(0, MigrateType.MOVABLE) for _ in range(300)]
    assert bulk == scalar
    a.check_consistency()


def test_alloc_bulk_empty_and_overask():
    buddy = make_buddy(mem_mib=4)
    assert buddy.alloc_bulk(0, MigrateType.MOVABLE).size == 0
    got = buddy.alloc_bulk(buddy.nr_frames + 5, MigrateType.MOVABLE)
    # Fast-path-only contract: never more than asked, never more than free.
    assert got.size <= buddy.nr_frames
    buddy.check_consistency()
