"""Fallback policy table and pageblock metadata."""

import pytest

from repro.mm import MigrateType, PageblockTable, PhysicalMemory
from repro.mm.fallback import fallback_types, should_steal_pageblock
from repro.units import MAX_ORDER, MiB, PAGEBLOCK_FRAMES


class TestFallbackTable:
    def test_every_type_has_fallbacks(self):
        for mt in MigrateType:
            fbs = fallback_types(mt)
            assert len(fbs) == 2
            assert mt not in fbs

    def test_unmovable_prefers_reclaimable(self):
        assert fallback_types(MigrateType.UNMOVABLE)[0] is \
            MigrateType.RECLAIMABLE

    def test_movable_avoids_unmovable_first(self):
        assert fallback_types(MigrateType.MOVABLE)[0] is \
            MigrateType.RECLAIMABLE

    def test_kernel_requests_always_steal(self):
        assert should_steal_pageblock(MigrateType.UNMOVABLE, 0)
        assert should_steal_pageblock(MigrateType.RECLAIMABLE, 0)

    def test_movable_steals_only_large_blocks(self):
        assert not should_steal_pageblock(MigrateType.MOVABLE, 0)
        assert not should_steal_pageblock(MigrateType.MOVABLE, 3)
        assert should_steal_pageblock(MigrateType.MOVABLE,
                                      MAX_ORDER // 2)


class TestPageblockTable:
    @pytest.fixture
    def table(self):
        return PageblockTable(PhysicalMemory(MiB(8)))

    def test_initially_movable(self, table):
        assert table.count(MigrateType.MOVABLE) == 4
        assert table.get(0) is MigrateType.MOVABLE

    def test_set_by_pfn(self, table):
        table.set(PAGEBLOCK_FRAMES + 5, MigrateType.UNMOVABLE)
        assert table.get_block(1) is MigrateType.UNMOVABLE
        assert table.get_block(0) is MigrateType.MOVABLE

    def test_block_range(self, table):
        start, end = table.block_range(1)
        assert (start, end) == (PAGEBLOCK_FRAMES, 2 * PAGEBLOCK_FRAMES)
