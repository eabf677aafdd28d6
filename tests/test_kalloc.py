"""Kernel allocation sources: slab, networking, page tables."""

import random

import pytest

from repro.errors import DoubleFreeError, ReproError
from repro.kalloc import (
    NetworkBufferPool,
    NetworkQueueConfig,
    PageTableAllocator,
    SOURCE_MIX_META,
    SlabAllocator,
    SlabCache,
    SourceMix,
    unmovable_breakdown,
)
from repro.mm import AllocSource, MigrateType
from repro.units import PAGEBLOCK_FRAMES

from conftest import make_linux


class TestSlab:
    def test_objects_pack_into_one_slab(self, linux):
        cache = SlabCache(linux, "test-256", 256)
        refs = [cache.alloc_object() for _ in range(8)]
        assert cache.nr_slabs == 1
        assert cache.total_objects == 8

    def test_slab_page_is_unmovable_source(self, linux):
        cache = SlabCache(linux, "test-64", 64)
        cache.alloc_object()
        assert linux.mem.unmovable_mask().any()
        counts = unmovable_breakdown(linux.mem)
        assert AllocSource.SLAB in counts

    def test_reclaimable_cache_uses_reclaimable_type(self, linux):
        cache = SlabCache(linux, "dentry", 192, reclaimable=True)
        assert cache.migratetype is MigrateType.RECLAIMABLE

    def test_empty_slab_freed_back(self, linux):
        cache = SlabCache(linux, "test-1k", 1024)
        refs = [cache.alloc_object() for _ in range(3)]
        for ref in refs:
            cache.free_object(ref)
        assert cache.nr_slabs == 0
        assert linux.free_frames() == linux.mem.nframes

    def test_partial_slab_keeps_page_alive(self, linux):
        """The straggler effect: one live object pins the whole slab."""
        cache = SlabCache(linux, "test-64", 64)
        refs = [cache.alloc_object() for _ in range(cache.objects_per_slab)]
        for ref in refs[1:]:
            cache.free_object(ref)
        assert cache.nr_slabs == 1
        assert cache.frames_in_use() >= 1

    def test_new_slab_when_full(self, linux):
        cache = SlabCache(linux, "test-64", 64)
        n = cache.objects_per_slab + 1
        for _ in range(n):
            cache.alloc_object()
        assert cache.nr_slabs == 2

    def test_cross_cache_free_rejected(self, linux):
        a = SlabCache(linux, "a", 64)
        b = SlabCache(linux, "b", 64)
        ref = a.alloc_object()
        with pytest.raises(ReproError):
            b.free_object(ref)

    def test_double_free_is_a_typed_error(self, linux):
        """A second free must not put the slot back twice: two later
        allocations would share it."""
        cache = SlabCache(linux, "test-256", 256)
        keep = cache.alloc_object()
        ref = cache.alloc_object()
        cache.free_object(ref)
        with pytest.raises(DoubleFreeError, match="already freed"):
            cache.free_object(ref)
        a, b = cache.alloc_object(), cache.alloc_object()
        assert cache.nr_slabs == 1
        assert len({a.index, b.index, keep.index}) == 3
        assert cache.total_objects == 3

    def test_bad_object_size_rejected(self, linux):
        with pytest.raises(ReproError):
            SlabCache(linux, "bad", 0)

    def test_allocator_registry(self, linux):
        slab = SlabAllocator(linux)
        assert slab["kmalloc-64"].object_size == 64
        slab["inode"].alloc_object()
        assert slab.frames_in_use() >= 1


class TestNetBuf:
    def test_bring_up_allocates_rings(self, linux):
        pool = NetworkBufferPool(linux, NetworkQueueConfig(
            nr_queues=2, ring_frames_per_queue=8))
        pool.bring_up()
        assert pool.frames_in_use() == 16
        counts = unmovable_breakdown(linux.mem)
        assert counts[AllocSource.NETWORKING] == 16

    def test_tear_down_frees_everything(self, linux):
        pool = NetworkBufferPool(linux, NetworkQueueConfig(
            nr_queues=2, ring_frames_per_queue=8))
        pool.bring_up()
        pool.tear_down()
        assert pool.frames_in_use() == 0
        assert linux.free_frames() == linux.mem.nframes

    def test_transient_buffer_roundtrip(self, linux):
        pool = NetworkBufferPool(linux)
        buf = pool.alloc_buffer()
        assert buf.source is AllocSource.NETWORKING
        pool.free_buffer(buf)
        assert linux.free_frames() == linux.mem.nframes

    def test_pinned_buffer_is_user_memory_pinned(self, linux):
        pool = NetworkBufferPool(linux)
        buf = pool.alloc_buffer(pinned=True)
        assert buf.source is AllocSource.USER
        assert buf.pinned
        pool.free_buffer(buf)
        assert linux.free_frames() == linux.mem.nframes

    def test_double_free_is_a_typed_error(self, linux):
        pool = NetworkBufferPool(linux)
        buf = pool.alloc_buffer()
        pool.free_buffer(buf)
        with pytest.raises(DoubleFreeError, match="already freed"):
            pool.free_buffer(buf)
        assert not pool.transient
        assert linux.free_frames() == linux.mem.nframes


class TestPageTables:
    def test_no_tables_when_nothing_mapped(self, linux):
        pt = PageTableAllocator(linux)
        assert pt.nr_tables == 0

    def test_tables_grow_with_mapping(self, linux):
        pt = PageTableAllocator(linux)
        pt.on_map(512)  # one leaf table
        assert pt.nr_tables >= 1
        n1 = pt.nr_tables
        pt.on_map(512 * 10)
        assert pt.nr_tables > n1

    def test_huge_mappings_need_fewer_tables(self, linux):
        pt4k = PageTableAllocator(linux)
        pt4k.on_map(512 * 512, leaf_level=0)
        pt2m = PageTableAllocator(linux)
        pt2m.on_map(512 * 512, leaf_level=1)
        assert pt2m.nr_tables < pt4k.nr_tables

    def test_unmap_releases_tables(self, linux):
        pt = PageTableAllocator(linux)
        pt.on_map(512 * 8)
        pt.on_unmap(512 * 8)
        assert pt.nr_tables == 0

    def test_tables_are_unmovable(self, linux):
        pt = PageTableAllocator(linux)
        pt.on_map(512)
        assert AllocSource.PAGETABLE in unmovable_breakdown(linux.mem)


class TestSourceMix:
    def test_meta_mix_matches_paper(self):
        assert SOURCE_MIX_META.networking == pytest.approx(0.73)
        assert SOURCE_MIX_META.slab == pytest.approx(0.12)

    def test_mix_must_sum_to_one(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            SourceMix(0.9, 0.2, 0.1, 0.1, 0.1)

    def test_empty_machine_has_no_breakdown(self, linux):
        assert unmovable_breakdown(linux.mem) == {}
