"""PhysicalMemory frame-state bookkeeping."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DoubleAllocError
from repro.mm import AllocSource, MigrateType, PhysicalMemory
from repro.units import MiB, PAGEBLOCK_FRAMES


@pytest.fixture
def mem() -> PhysicalMemory:
    return PhysicalMemory(MiB(8))


def test_geometry(mem):
    assert mem.nframes == 2048
    assert mem.npageblocks == 4
    assert mem.free_frames() == 2048


def test_rejects_unaligned_size():
    with pytest.raises(ConfigurationError):
        PhysicalMemory(MiB(1))  # less than one pageblock


def test_rejects_zero_size():
    with pytest.raises(ConfigurationError):
        PhysicalMemory(0)


def test_mark_allocated_and_info(mem):
    mem.mark_allocated(64, 3, MigrateType.UNMOVABLE,
                       AllocSource.NETWORKING, birth=17)
    info = mem.allocation_info(64)
    assert info.pfn == 64
    assert info.order == 3
    assert info.nframes == 8
    assert info.end_pfn == 72
    assert info.migratetype is MigrateType.UNMOVABLE
    assert info.source is AllocSource.NETWORKING
    assert info.birth == 17
    assert info.unmovable


def test_info_from_member_frame_finds_head(mem):
    mem.mark_allocated(0, 4, MigrateType.MOVABLE, AllocSource.USER, 0)
    info = mem.allocation_info(13)
    assert info.pfn == 0
    assert info.order == 4


def test_mark_free_clears_everything(mem):
    mem.mark_allocated(0, 2, MigrateType.MOVABLE, AllocSource.USER, 0)
    assert mem.free_frames() == 2048 - 4
    order = mem.mark_free(0)
    assert order == 2
    assert mem.free_frames() == 2048
    assert not mem.is_allocated(0)
    assert mem.alloc_order[0] == -1


def test_double_allocation_raises_typed(mem):
    mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0)
    with pytest.raises(DoubleAllocError):
        mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0)


def test_pin_unpin(mem):
    mem.mark_allocated(8, 1, MigrateType.MOVABLE, AllocSource.USER, 0)
    assert not mem.is_pinned(8)
    mem.pin(8)
    assert mem.is_pinned(8)
    assert mem.is_pinned(9)
    assert mem.allocation_info(8).unmovable
    mem.unpin(8)
    assert not mem.is_pinned(8)
    assert not mem.allocation_info(8).unmovable


def test_unmovable_mask_kernel_sources(mem):
    mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0)
    mem.mark_allocated(1, 0, MigrateType.UNMOVABLE, AllocSource.SLAB, 0)
    mask = mem.unmovable_mask()
    assert not mask[0]
    assert mask[1]
    assert not mask[2]  # free frame


def test_unmovable_mask_pinned_user(mem):
    mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0,
                       pinned=True)
    assert mem.unmovable_mask()[0]


def test_allocated_mask_counts(mem):
    mem.mark_allocated(0, 3, MigrateType.MOVABLE, AllocSource.USER, 0)
    assert int(np.count_nonzero(mem.allocated_mask())) == 8


def test_pageblock_of(mem):
    assert mem.pageblock_of(0) == 0
    assert mem.pageblock_of(PAGEBLOCK_FRAMES) == 1
    assert mem.pageblock_of(PAGEBLOCK_FRAMES - 1) == 0


class TestPageblockQueries:
    """Vectorised PageblockTable queries against hand-built state."""

    @pytest.fixture
    def table(self, mem):
        from repro.mm.pageblock import PageblockTable
        return PageblockTable(mem, initial=MigrateType.MOVABLE)

    def test_counts_matches_per_type_count(self, table):
        table.set_block(0, MigrateType.UNMOVABLE)
        table.set_block(2, MigrateType.RECLAIMABLE)
        counts = table.counts()
        assert sum(counts.values()) == table.mem.npageblocks
        for mt in MigrateType:
            assert counts[mt] == table.count(mt)
        assert counts[MigrateType.UNMOVABLE] == 1
        assert counts[MigrateType.MOVABLE] == 2

    def test_occupancy_tracks_allocations(self, mem, table):
        assert table.occupancy().tolist() == [0, 0, 0, 0]
        mem.mark_allocated(0, 3, MigrateType.MOVABLE,
                           AllocSource.USER, birth=0)
        start, _ = table.block_range(1)
        mem.mark_allocated(start, 0, MigrateType.MOVABLE,
                           AllocSource.USER, birth=0)
        occ = table.occupancy()
        assert occ.tolist() == [8, 1, 0, 0]
        assert int(occ.sum()) == mem.nframes - mem.free_frames()

    def test_empty_blocks_shrinks_and_recovers(self, mem, table):
        assert table.empty_blocks().tolist() == [0, 1, 2, 3]
        start, _ = table.block_range(2)
        mem.mark_allocated(start, 0, MigrateType.MOVABLE,
                           AllocSource.USER, birth=0)
        assert table.empty_blocks().tolist() == [0, 1, 3]
        mem.mark_free(start)
        assert table.empty_blocks().tolist() == [0, 1, 2, 3]
