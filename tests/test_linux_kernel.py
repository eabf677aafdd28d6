"""LinuxKernel facade: slow paths, THP, gigapages, pinning."""

import pytest

from repro.errors import ContiguityError, DoubleFreeError, OutOfMemoryError
from repro.mm import AllocSource, KernelConfig, LinuxKernel, MigrateType
from repro.mm import vmstat as ev
from repro.units import GIGAPAGE_FRAMES, MAX_ORDER, MiB, PAGEBLOCK_FRAMES

from conftest import churn, make_linux, pin_one_per_pageblock


def test_alloc_free_roundtrip(linux):
    h = linux.alloc_pages(0)
    assert h.nframes == 1
    linux.free_pages(h)
    assert h.freed
    assert linux.free_frames() == linux.mem.nframes


def test_double_free_raises_typed(linux):
    h = linux.alloc_pages(0)
    linux.free_pages(h)
    with pytest.raises(DoubleFreeError):
        linux.free_pages(h)


def test_default_migratetype_by_source(linux):
    user = linux.alloc_pages(0, source=AllocSource.USER)
    net = linux.alloc_pages(0, source=AllocSource.NETWORKING)
    assert user.migratetype is MigrateType.MOVABLE
    assert net.migratetype is MigrateType.UNMOVABLE


def test_reclaim_rescues_allocation():
    k = make_linux(mem_mib=4)
    # Fill memory completely with reclaimable pages, then ask for more.
    handles = []
    while k.free_frames() > 0:
        handles.append(k.alloc_pages(0, reclaimable=True))
    h = k.alloc_pages(2)  # triggers direct reclaim
    assert h.nframes == 4
    assert k.stat[ev.PAGES_RECLAIMED] > 0


def test_oom_when_nothing_reclaimable():
    k = make_linux(mem_mib=4)
    keep = []
    with pytest.raises(OutOfMemoryError):
        while True:
            keep.append(k.alloc_pages(0))
    assert k.stat[ev.ALLOC_FAIL] > 0


def test_slow_path_compaction_rescues_high_order():
    k = make_linux(mem_mib=8)
    # Checkerboard all of memory so no order-9 block is free anywhere.
    pages = [k.alloc_pages(0) for _ in range(k.mem.nframes)]
    for i, h in enumerate(pages):
        if i % 2 == 0:
            k.free_pages(h)
    assert k.buddy.largest_free_order() < MAX_ORDER
    h = k.alloc_pages(MAX_ORDER)  # compacted on demand
    assert h.nframes == PAGEBLOCK_FRAMES
    assert k.stat[ev.COMPACT_RUNS] >= 1


def test_thp_alloc_success(linux):
    h = linux.alloc_thp()
    assert h is not None
    assert h.order == MAX_ORDER
    assert linux.stat[ev.THP_ALLOC] == 1


def test_thp_fallback_when_fragmented():
    k = make_linux(mem_mib=4)
    pin_one_per_pageblock(k)
    assert k.alloc_thp() is None
    assert k.stat[ev.THP_FALLBACK] == 1


def test_gigapage_too_small_machine():
    k = make_linux(mem_mib=64)
    with pytest.raises(ContiguityError):
        k.alloc_gigapage()
    assert k.stat[ev.HUGETLB_1G_FAIL] == 1


def test_gigapage_success_and_free():
    k = make_linux(mem_mib=1024 + 2)  # room for one aligned 1 GiB range
    h = k.alloc_gigapage()
    assert h.nframes == GIGAPAGE_FRAMES
    assert h.pfn % GIGAPAGE_FRAMES == 0
    k.check_consistency()
    k.free_pages(h)
    assert k.free_frames() == k.mem.nframes
    k.check_consistency()


def test_gigapage_blocked_by_scattered_unmovable():
    k = make_linux(mem_mib=1024)
    # One unmovable page per 2 MiB block poisons every candidate range.
    for block in range(k.mem.npageblocks):
        k.alloc_pages(0, source=AllocSource.SLAB)
    with pytest.raises(ContiguityError):
        k.alloc_gigapage()


def test_pin_in_place(linux):
    h = linux.alloc_pages(0)
    pfn_before = h.pfn
    linux.pin_pages(h)
    assert h.pinned
    assert h.pfn == pfn_before  # Linux pins in place: pollution
    assert linux.mem.unmovable_mask()[h.pfn]
    linux.unpin_pages(h)
    assert not linux.mem.unmovable_mask()[h.pfn]


def test_advance_runs_background_reclaim():
    k = make_linux(mem_mib=4)
    while k.free_frames() > k.watermarks.low - 1:
        k.alloc_pages(0, reclaimable=True)
    k.advance(1000)
    assert k.free_frames() >= k.watermarks.low


def test_churn_preserves_consistency(rng):
    k = make_linux(mem_mib=16)
    churn(k, rng, steps=1500)
    k.check_consistency()


def test_fallback_scatters_unmovable_blocks(rng):
    """The root-cause behaviour (paper §2.5): at production utilisation —
    memory full of page cache — unmovable allocations land wherever
    reclaim frees pages and spread over many pageblocks."""
    k = make_linux(mem_mib=32)
    churn(k, rng, steps=5000, unmovable_fraction=0.3, fill_cache=True,
          cache_churn=1.0)
    unmovable = k.mem.unmovable_mask()
    blocks_touched = {
        int(pfn) // PAGEBLOCK_FRAMES
        for pfn in unmovable.nonzero()[0]
    }
    assert len(blocks_touched) > k.mem.npageblocks // 4
