"""HugeTLB pools and khugepaged collapse."""

import pickle

import pytest

from repro.errors import ConfigurationError, ContiguityError
from repro.mm import HugeTLBPool, Khugepaged, MigrateType
from repro.mm import vmstat as ev
from repro.units import GIGAPAGE_FRAMES, PAGEBLOCK_FRAMES

from conftest import make_contiguitas, make_linux


class TestHugeTLBPool:
    def test_reserve_2m(self, linux):
        pool = HugeTLBPool(linux)
        assert pool.reserve_2m(3) == 3
        assert pool.stats.nr_2m == 3
        assert pool.stats.free_2m == 3

    def test_get_and_put_2m(self, linux):
        pool = HugeTLBPool(linux)
        pool.reserve_2m(1)
        page = pool.get_page(PAGEBLOCK_FRAMES)
        assert page.nframes == PAGEBLOCK_FRAMES
        assert pool.stats.free_2m == 0
        pool.put_page(page)
        assert pool.stats.free_2m == 1

    def test_pool_is_persistent(self, linux):
        """put_page returns to the pool, not the buddy allocator."""
        pool = HugeTLBPool(linux)
        pool.reserve_2m(1)
        free_with_pool = linux.free_frames()
        page = pool.get_page(PAGEBLOCK_FRAMES)
        pool.put_page(page)
        assert linux.free_frames() == free_with_pool

    def test_empty_pool_raises(self, linux):
        pool = HugeTLBPool(linux)
        with pytest.raises(ContiguityError):
            pool.get_page(PAGEBLOCK_FRAMES)

    def test_foreign_page_rejected(self, linux):
        pool = HugeTLBPool(linux)
        handle = linux.alloc_pages(9)
        with pytest.raises(ConfigurationError):
            pool.put_page(handle)

    def test_page_out_survives_a_checkpoint(self, linux):
        """A restored pool takes its own page back: ``_in_use`` used to
        hold ``id(handle)``, which no unpickled handle ever equals."""
        pool = HugeTLBPool(linux)
        pool.reserve_2m(2)
        page = pool.get_page(PAGEBLOCK_FRAMES)
        pool, page = pickle.loads(pickle.dumps((pool, page)))
        pool.put_page(page)
        assert pool.stats.free_2m == 2
        with pytest.raises(ConfigurationError):
            pool.put_page(page)             # no longer out

    def test_bad_size_rejected(self, linux):
        pool = HugeTLBPool(linux)
        with pytest.raises(ConfigurationError):
            pool.get_page(123)

    def test_release_free_pages(self, linux):
        pool = HugeTLBPool(linux)
        pool.reserve_2m(2)
        released = pool.release_free_pages()
        assert released == 2 * PAGEBLOCK_FRAMES
        assert pool.stats.nr_2m == 0
        assert linux.free_frames() == linux.mem.nframes

    def test_reserve_1g_fails_on_small_machine(self, linux):
        pool = HugeTLBPool(linux)
        assert pool.reserve_1g(1) == 0
        assert pool.stats.reserve_failures_1g == 1

    def test_reserve_1g_succeeds_with_room(self):
        k = make_linux(mem_mib=1026)
        pool = HugeTLBPool(k)
        assert pool.reserve_1g(1) == 1
        page = pool.get_page(GIGAPAGE_FRAMES)
        assert page.nframes == GIGAPAGE_FRAMES

    def test_reserve_counts_partial_success(self, linux):
        # 32 MiB machine: at most 16 huge pages fit.
        pool = HugeTLBPool(linux)
        got = pool.reserve_2m(100)
        assert 0 < got < 100
        assert pool.stats.reserve_failures_2m == 1


class TestKhugepaged:
    def test_collapse_promotes_region(self, linux):
        kh = Khugepaged(linux)
        pages = [linux.alloc_pages(0) for _ in range(PAGEBLOCK_FRAMES)]
        huge = kh.collapse(pages)
        assert huge is not None
        assert huge.order == 9
        assert all(p.freed for p in pages)
        assert linux.stat[ev.THP_PROMOTED] == 1

    def test_collapse_requires_full_region(self, linux):
        kh = Khugepaged(linux)
        with pytest.raises(ValueError):
            kh.collapse([linux.alloc_pages(0)])

    def test_collapse_rejects_pinned(self, linux):
        kh = Khugepaged(linux)
        pages = [linux.alloc_pages(0) for _ in range(PAGEBLOCK_FRAMES)]
        linux.pin_pages(pages[17])
        assert kh.collapse(pages) is None
        assert not pages[0].freed  # nothing was freed

    def test_scan_replaces_regions_in_place(self, linux):
        kh = Khugepaged(linux, max_collapses_per_pass=1)
        regions = [
            [linux.alloc_pages(0) for _ in range(PAGEBLOCK_FRAMES)]
            for _ in range(2)
        ]
        result = kh.scan(regions)
        assert result.collapsed == 1  # budget respected
        assert len(regions[0]) == 1
        assert regions[0][0].order == 9
        assert len(regions[1]) == PAGEBLOCK_FRAMES

    def test_scan_skips_huge_regions(self, linux):
        kh = Khugepaged(linux)
        huge = linux.alloc_thp()
        result = kh.scan([[huge]])
        assert result.scanned == 0
        assert result.collapsed == 0

    def test_collapse_on_contiguitas_after_fragmentation(self):
        """Integration: khugepaged can promote on Contiguitas even after
        the full-fragmentation process, because contiguity survives."""
        from repro.workloads import fragment_fully

        k = make_contiguitas(mem_mib=64)
        fragment_fully(k)
        kh = Khugepaged(k)
        pages = [k.alloc_pages(0) for _ in range(PAGEBLOCK_FRAMES)]
        assert kh.collapse(pages) is not None
