"""Contiguity scans, HW cost model, and report formatting."""

import pytest

from repro.analysis import (
    MetadataTableCost,
    SCAN_GRANULARITIES,
    contiguity_report,
    format_table,
    free_block_count,
    free_contiguity,
    migrations_per_second_capacity,
    movable_potential,
    percent,
    unmovable_block_fraction,
    unmovable_region_internal_frag,
)
from repro.mm import AllocSource, MigrateType, PhysicalMemory
from repro.units import MiB, PAGEBLOCK_FRAMES


@pytest.fixture
def mem():
    return PhysicalMemory(MiB(16))  # 8 pageblocks


def test_empty_memory_full_contiguity(mem):
    assert free_contiguity(mem, PAGEBLOCK_FRAMES) == 1.0
    assert free_block_count(mem, PAGEBLOCK_FRAMES) == 8


def test_one_page_poisons_one_block(mem):
    mem.mark_allocated(0, 0, MigrateType.UNMOVABLE, AllocSource.SLAB, 0)
    assert unmovable_block_fraction(mem, PAGEBLOCK_FRAMES) == 1 / 8
    assert movable_potential(mem, PAGEBLOCK_FRAMES) == 7 / 8


def test_single_page_poisons_whole_gigabyte():
    """The paper's §1 amplification example: one unmovable 4 KiB page can
    render a 1 GiB region unmovable."""
    mem = PhysicalMemory(MiB(1024))
    mem.mark_allocated(100_000, 0, MigrateType.UNMOVABLE,
                       AllocSource.NETWORKING, 0)
    assert movable_potential(mem, SCAN_GRANULARITIES["1GB"]) == 0.0
    assert mem.unmovable_mask().mean() < 0.00001


def test_free_contiguity_counts_only_full_blocks(mem):
    # Allocate one frame in every block: zero full blocks remain.
    for block in range(8):
        mem.mark_allocated(block * PAGEBLOCK_FRAMES, 0,
                           MigrateType.MOVABLE, AllocSource.USER, 0)
    assert free_contiguity(mem, PAGEBLOCK_FRAMES) == 0.0
    # But almost all memory is still free.
    assert mem.free_frames() == mem.nframes - 8


def test_free_contiguity_is_fraction_of_free_memory(mem):
    # Fill half the memory completely: remaining free memory is all
    # contiguous, so the metric stays 1.0.
    half = mem.nframes // 2
    mem.mark_allocated(0, 0, MigrateType.MOVABLE, AllocSource.USER, 0)
    for pfn in range(1, half):
        mem.mark_allocated(pfn, 0, MigrateType.MOVABLE, AllocSource.USER, 0)
    assert free_contiguity(mem, PAGEBLOCK_FRAMES) == 1.0


def test_full_memory_zero_contiguity(mem):
    for pfn in range(mem.nframes):
        mem.mark_allocated(pfn, 0, MigrateType.MOVABLE, AllocSource.USER, 0)
    assert free_contiguity(mem, PAGEBLOCK_FRAMES) == 0.0


def test_contiguity_report_has_all_granularities(mem):
    report = contiguity_report(mem)
    assert set(report) == {"2MB", "4MB", "32MB", "1GB"}
    # 16 MiB machine: no 32MB or 1GB block fits.
    assert report["32MB"] == 0.0
    assert report["1GB"] == 0.0


def test_internal_frag_of_unmovable_region(mem):
    # Region = blocks 4..8.  Block 4: half full; blocks 5-7 free.
    start = 4 * PAGEBLOCK_FRAMES
    for pfn in range(start, start + PAGEBLOCK_FRAMES // 2):
        mem.mark_allocated(pfn, 0, MigrateType.UNMOVABLE,
                           AllocSource.NETWORKING, 0)
    frag = unmovable_region_internal_frag(mem, start)
    assert frag == pytest.approx(0.5)


def test_internal_frag_empty_region(mem):
    assert unmovable_region_internal_frag(mem, 0) == 0.0


class TestHwCost:
    def test_area_matches_paper(self):
        cost = MetadataTableCost()
        assert cost.area_mm2() == pytest.approx(0.0038, rel=0.1)

    def test_energy_matches_paper(self):
        assert MetadataTableCost().energy_per_access_nj() == pytest.approx(
            0.0017, rel=0.1)

    def test_leakage_matches_paper(self):
        assert MetadataTableCost().leakage_mw() == pytest.approx(0.64, rel=0.1)

    def test_core_fraction_negligible(self):
        frac = MetadataTableCost().fraction_of_core_area()
        assert frac == pytest.approx(0.00014, rel=0.2)  # §5.3: 0.014 %

    def test_migration_capacity_far_exceeds_demand(self):
        """§5.3: even one entry sustains far more than the Very High
        rate of 1000 migrations/s."""
        one_entry = migrations_per_second_capacity(entries=1)
        assert one_entry > 10_000
        assert migrations_per_second_capacity(entries=16) == 16 * one_entry


class TestReporting:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["xx", "y"]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_percent(self):
        assert percent(0.314) == "31.4%"
        assert percent(0.5, digits=0) == "50%"
