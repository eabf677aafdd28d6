"""IOMMU/IOTLB/device-TLB model and variable-size migration mappings."""

import pytest

from repro.core.hwext import HwMigrationEngine, MigrationEntry
from repro.errors import HardwareProtocolError
from repro.sim.iommu import DeviceTlb, Iommu
from repro.units import LINES_PER_PAGE


class TestIommu:
    def test_translation_fills_iotlb(self):
        iommu = Iommu()
        cold = iommu.translate(42)
        warm = iommu.translate(42)
        assert cold > warm
        assert iommu.walks == 1

        # lookup after invalidation counts as a miss that refills.

    def test_synchronous_invalidation_scales_with_devices(self):
        iommu = Iommu()
        base = iommu.synchronous_invalidate_cycles()
        iommu.attach_device(DeviceTlb())
        iommu.attach_device(DeviceTlb())
        assert iommu.synchronous_invalidate_cycles() > base


class TestVariableSizeMappings:
    def test_entry_covers_range(self):
        entry = MigrationEntry(src_ppn=100, dst_ppn=200, size_pages=4)
        assert entry.covers(100)
        assert entry.covers(103)
        assert not entry.covers(104)
        assert entry.total_lines == 4 * LINES_PER_PAGE

    def test_redirect_spans_pages(self):
        entry = MigrationEntry(src_ppn=100, dst_ppn=200, size_pages=2,
                               ptr=LINES_PER_PAGE + 8)
        # Page 0 fully copied; page 1 copied through line 7.
        assert entry.redirect(5, page_offset=0) == 200
        assert entry.redirect(7, page_offset=1) == 201
        assert entry.redirect(8, page_offset=1) == 101

    def test_redirect_bounds(self):
        entry = MigrationEntry(src_ppn=1, dst_ppn=2, size_pages=2)
        with pytest.raises(HardwareProtocolError):
            entry.redirect(0, page_offset=2)

    def test_engine_migrates_multipage_buffer(self):
        eng = HwMigrationEngine()
        eng.submit_migrate(100, 200, size_pages=4)
        eng.copy_lines(100, max_lines=LINES_PER_PAGE + 10)
        # First page served from destination, later pages from source.
        assert eng.access(100, 0) == 200
        assert eng.access(101, 9) == 201
        assert eng.access(101, 10) == 101
        assert eng.access(103, 0) == 103
        eng.copy_lines(100)  # finish
        entry = eng.table.lookup(100)
        assert entry.done
        eng.submit_clear(100)

    def test_table_lookup_covering(self):
        eng = HwMigrationEngine()
        eng.submit_migrate(100, 200, size_pages=4)
        assert eng.table.lookup_covering(102) is not None
        assert eng.table.lookup_covering(104) is None
