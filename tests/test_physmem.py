"""PhysicalMemory frame-state bookkeeping."""

import numpy as np
import pytest

from repro.analysis.sanitizer import FrameSanitizer
from repro.errors import ConfigurationError, DoubleAllocError
from repro.mm import AllocSource, MigrateType, PhysicalMemory
from repro.mm.page import PageFlag
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


def test_ranged_masks_equal_the_sliced_full_masks(mem):
    mem.mark_allocated(0, 3, MigrateType.MOVABLE, AllocSource.USER, 0)
    mem.mark_allocated(600, 1, MigrateType.UNMOVABLE, AllocSource.SLAB, 0)
    mem.mark_allocated(1030, 0, MigrateType.MOVABLE, AllocSource.USER, 0,
                       pinned=True)
    for name in ("allocated_mask", "pinned_mask", "unmovable_mask"):
        mask = getattr(mem, name)
        for start, end in ((0, None), (0, 512), (512, 1536), (1030, 1031)):
            assert np.array_equal(mask(start, end), mask()[start:end])
        assert mask(512, 1024).size == 512


_COLUMNS = ("flags", "migratetype", "source", "free_order", "free_mt",
            "alloc_order", "head_of", "birth")


def _columns(mem):
    return {name: getattr(mem, name).copy() for name in _COLUMNS}


def _slice_mark_allocated(mem, pfn, order, mt, source, birth, pinned):
    """The numpy-slice marks every order above 0 went through before
    orders 1-3 got a scalar loop (ISSUE 21), kept here as the oracle."""
    end = pfn + (1 << order)
    pin = (1 << PageFlag.PINNED) if pinned else 0
    mem.flags[pfn:end] = (1 << PageFlag.ALLOCATED) | pin
    mem.flags[pfn] |= 1 << PageFlag.HEAD
    mem.migratetype[pfn:end] = int(mt)
    mem.source[pfn:end] = int(source)
    mem.head_of[pfn:end] = pfn
    mem.alloc_order[pfn] = order
    mem.birth[pfn] = birth


@pytest.mark.parametrize("pinned", [False, True], ids=["plain", "pinned"])
@pytest.mark.parametrize("order", range(6))
def test_marks_equal_the_slice_reference_across_the_cutover(order, pinned):
    pfn, n = 64, 1 << order
    mem, ref = PhysicalMemory(MiB(2)), PhysicalMemory(MiB(2))
    san = FrameSanitizer().attach(mem)
    args = (MigrateType.UNMOVABLE, AllocSource.SLAB, 17)
    for m in (mem, ref):     # live neighbours on both sides stay as they are
        _slice_mark_allocated(m, pfn - 1, 0, MigrateType.MOVABLE,
                              AllocSource.USER, 3, False)
        _slice_mark_allocated(m, pfn + n, 0, MigrateType.MOVABLE,
                              AllocSource.USER, 3, True)
    mem.mark_allocated(pfn, order, *args, pinned)
    _slice_mark_allocated(ref, pfn, order, *args, pinned)
    got, want = _columns(mem), _columns(ref)
    for name in _COLUMNS:
        assert np.array_equal(got[name], want[name]), name
    assert mem.pinned_mask(pfn, pfn + n).all() == pinned
    assert san.events == 1
    assert mem.mark_free(pfn) == order
    ref.flags[pfn:pfn + n] = 0
    ref.alloc_order[pfn] = -1
    got, want = _columns(mem), _columns(ref)
    for name in _COLUMNS:
        assert np.array_equal(got[name], want[name]), name
    assert san.history(pfn) == (("alloc", order, 17), ("free", order, -1))
    assert san.events == 2


@pytest.mark.parametrize("live", ["first", "last"])
@pytest.mark.parametrize("order", range(1, 6))
def test_a_live_frame_inside_the_range_is_a_double_alloc(mem, order, live):
    if live == "first":     # 64 is a live *non-head* frame of 63's block
        mem.mark_allocated(63, 1, MigrateType.MOVABLE, AllocSource.USER, 0)
    else:
        mem.mark_allocated(64 + (1 << order) - 1, 0, MigrateType.MOVABLE,
                           AllocSource.USER, 0)
    before = _columns(mem)
    with pytest.raises(DoubleAllocError) as exc:
        mem.mark_allocated(64, order, MigrateType.UNMOVABLE,
                           AllocSource.SLAB, 5)
    assert exc.value.pfn == 64      # the block's head, not the live frame
    after = _columns(mem)           # refused before any column is written
    assert all(np.array_equal(before[n], after[n]) for n in _COLUMNS)


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
