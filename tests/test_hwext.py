"""Contiguitas-HW: metadata table, commands, migration engine."""

import pytest

from repro.core.hwext import (
    AccessMode,
    HwMigrationEngine,
    MetadataTable,
    MigrateFlag,
    MigrationEntry,
    WorkQueue,
    clear_descriptor,
    migrate_descriptor,
)
from repro.errors import HardwareProtocolError
from repro.units import LINES_PER_PAGE


class TestMetadataTable:
    def test_install_lookup_clear(self):
        t = MetadataTable()
        e = MigrationEntry(src_ppn=5, dst_ppn=9)
        t.install(e)
        assert t.lookup(5) is e
        assert 5 in t
        got = t.clear(5)
        assert got is e
        assert t.lookup(5) is None

    def test_duplicate_install_rejected(self):
        t = MetadataTable()
        t.install(MigrationEntry(1, 2))
        with pytest.raises(HardwareProtocolError):
            t.install(MigrationEntry(1, 3))

    def test_capacity_enforced(self):
        t = MetadataTable(capacity=2)
        t.install(MigrationEntry(1, 10))
        t.install(MigrationEntry(2, 20))
        assert t.full
        with pytest.raises(HardwareProtocolError):
            t.install(MigrationEntry(3, 30))

    def test_clear_unknown_rejected(self):
        with pytest.raises(HardwareProtocolError):
            MetadataTable().clear(7)

    def test_peak_occupancy_tracked(self):
        t = MetadataTable()
        t.install(MigrationEntry(1, 10))
        t.install(MigrationEntry(2, 20))
        t.clear(1)
        assert t.peak_occupancy == 2

    def test_redirect_follows_ptr(self):
        e = MigrationEntry(src_ppn=5, dst_ppn=9, ptr=10)
        assert e.redirect(3) == 9    # already copied -> destination
        assert e.redirect(10) == 5   # not yet copied -> source
        assert e.redirect(63) == 5

    def test_redirect_bounds_checked(self):
        e = MigrationEntry(1, 2)
        with pytest.raises(HardwareProtocolError):
            e.redirect(64)


class TestWorkQueue:
    def test_fifo_order(self):
        q = WorkQueue()
        a = migrate_descriptor(1, 2)
        b = clear_descriptor(1)
        q.enqcmd(a)
        q.enqcmd(b)
        assert q.pop() is a
        assert q.pop() is b
        assert q.pop() is None

    def test_depth_limit(self):
        q = WorkQueue(depth=1)
        q.enqcmd(migrate_descriptor(1, 2))
        with pytest.raises(HardwareProtocolError):
            q.enqcmd(migrate_descriptor(3, 4))


def migrate(eng, src, dst):
    """One whole page migration through the OS-visible protocol, the
    way ``examples/hw_migration.py`` drives the engine; returns the
    cycles the copy took."""
    eng.submit_migrate(src, dst)
    if eng.mode is AccessMode.CACHEABLE:
        # The OS flips PTE + TLBs first, then the copy runs.
        eng.start_copy(src)
    cycles = eng.copy_lines(src)
    eng.submit_clear(src)
    return cycles


class TestEngineNoncacheable:
    def test_full_migration_copies_all_lines(self):
        eng = HwMigrationEngine()
        migrate(eng, 100, 200)
        assert eng.stats.lines_copied == LINES_PER_PAGE
        assert eng.stats.migrations == 1
        assert eng.table.lookup(100) is None  # cleared

    def test_redirection_during_copy(self):
        eng = HwMigrationEngine()
        eng.submit_migrate(100, 200)
        eng.copy_lines(100, max_lines=8)
        # Lines 0-7 migrated: served from dst; line 8+ from src.
        assert eng.access(100, 0) == 200
        assert eng.access(100, 8) == 100
        assert eng.stats.redirected_accesses == 1

    def test_access_to_unrelated_page_untouched(self):
        eng = HwMigrationEngine()
        eng.submit_migrate(100, 200)
        assert eng.access(555, 3) == 555

    def test_clear_before_done_rejected(self):
        eng = HwMigrationEngine()
        eng.submit_migrate(100, 200)
        eng.copy_lines(100, max_lines=8)
        with pytest.raises(HardwareProtocolError):
            eng.submit_clear(100)

    def test_migration_descriptor_completion(self):
        eng = HwMigrationEngine()
        desc = eng.submit_migrate(100, 200)
        assert desc.completed

    def test_cross_slice_writes_happen(self):
        eng = HwMigrationEngine()
        cycles = migrate(eng, 100, 200)
        # The slice hash spreads lines: some copies must cross slices.
        assert eng.stats.cross_slice_writes > 0
        assert cycles > 0

    def test_copy_cost_reasonable(self):
        """The HW copy should take on the order of microseconds at 2 GHz
        (§5.3 quotes ~2 µs per 4 KiB page)."""
        eng = HwMigrationEngine()
        us = eng.params.cycles_to_us(migrate(eng, 100, 200))
        assert 0.5 <= us <= 5.0

    def test_concurrent_migrations(self):
        eng = HwMigrationEngine()
        eng.submit_migrate(1, 11)
        eng.submit_migrate(2, 22)
        eng.copy_lines(1, 8)
        eng.copy_lines(2, 16)
        assert eng.access(1, 0) == 11
        assert eng.access(2, 15) == 22
        assert eng.access(2, 16) == 2


class TestEngineCacheable:
    def test_copy_deferred_until_start(self):
        eng = HwMigrationEngine(mode=AccessMode.CACHEABLE)
        eng.submit_migrate(100, 200)
        with pytest.raises(HardwareProtocolError):
            eng.copy_lines(100)
        eng.start_copy(100)
        assert eng.copy_lines(100) > 0

    def test_single_mapping_invariant(self):
        """At most one mapping caches a line privately; the opposite
        mapping's access invalidates it (§3.3 cacheable design)."""
        eng = HwMigrationEngine(mode=AccessMode.CACHEABLE)
        eng.submit_migrate(100, 200)
        eng.access(100, 5, mapping="src")
        eng.access(100, 5, mapping="src")
        assert eng.stats.nacks == 0
        eng.access(100, 5, mapping="dst")
        assert eng.stats.nacks == 1
        eng.access(100, 5, mapping="dst")
        assert eng.stats.nacks == 1
        eng.access(100, 5, mapping="src")
        assert eng.stats.nacks == 2

    def test_dirty_destination_lines_skipped(self):
        eng = HwMigrationEngine(mode=AccessMode.CACHEABLE)
        eng.submit_migrate(100, 200)
        eng.access(100, 3, mapping="dst", write=True)
        eng.access(100, 7, mapping="dst", write=True)
        eng.start_copy(100)
        eng.copy_lines(100)
        entry = eng.table.lookup(100)
        assert entry.done
        # Copy advanced past the dirty lines without copying them.
        assert eng.stats.lines_copied == LINES_PER_PAGE - 2

    def test_full_cacheable_migration_report(self):
        eng = HwMigrationEngine(mode=AccessMode.CACHEABLE)
        assert migrate(eng, 100, 200) > 0
        assert eng.stats.lines_copied == LINES_PER_PAGE
        assert eng.stats.migrations == 1
        assert eng.table.lookup(100) is None


class TestEngineErrors:
    def test_copy_without_migration(self):
        eng = HwMigrationEngine()
        with pytest.raises(HardwareProtocolError):
            eng.copy_lines(42)

    def test_start_copy_without_migration(self):
        eng = HwMigrationEngine(mode=AccessMode.CACHEABLE)
        with pytest.raises(HardwareProtocolError):
            eng.start_copy(42)
