"""The Contiguitas-HW migration engine (paper §3.3, Figs. 8-9).

Executes ``Migrate``/``Clear`` descriptors against the sliced LLC:

* installs migration mappings in the (per-slice, modelled logically as
  one) metadata table;
* copies the page line by line — BusRdX both lines, copy in the LLC,
  advance ``Ptr``, with cross-slice writes and sequential slice hand-off
  when source and destination lines home on different slices;
* redirects in-flight requests: a source-page access below ``Ptr`` is
  served from the destination;
* supports both §3.3 design points: **noncacheable** (copy starts
  immediately; migrated lines bypass private caches) and **cacheable**
  (redirection first, copy deferred until the OS flipped every TLB; at
  most one of the two mappings may cache a line in private caches, and
  dirty destination lines are skipped by the copy).

The page under migration is never unavailable; the only stall ever seen by
a core is its own local TLB invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import HardwareProtocolError
from ...units import LINES_PER_PAGE
from ...sim.cache import SlicedLLC
from ...sim.params import DEFAULT_PARAMS, ArchParams
from .commands import (
    CommandKind,
    MigrateFlag,
    WorkDescriptor,
    WorkQueue,
    clear_descriptor,
    migrate_descriptor,
)
from .metadata import AccessMode, MetadataTable, MigrationEntry


@dataclass
class EngineStats:
    """Lifetime counters across all migrations."""

    migrations: int = 0
    lines_copied: int = 0
    cross_slice_writes: int = 0
    busy_cycles: int = 0
    redirected_accesses: int = 0
    nacks: int = 0


class HwMigrationEngine:
    """Functional + cycle-accounting model of Contiguitas-HW."""

    def __init__(self, params: ArchParams | None = None,
                 mode: AccessMode = AccessMode.NONCACHEABLE) -> None:
        self.params = params or DEFAULT_PARAMS
        self.mode = mode
        self.llc = SlicedLLC(self.params)
        self.table = MetadataTable(self.params.hw_table_entries)
        self.queue = WorkQueue()
        self.stats = EngineStats()
        # Cacheable design: which mapping currently caches each line in
        # the private caches ("src"/"dst"), per (src_ppn, line).
        self._private: dict[tuple[int, int], str] = {}
        # Destination lines dirtied in private caches during a cacheable
        # migration; the copy must skip them (they are newest).
        self._dirty_dst: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # OS-visible command path
    # ------------------------------------------------------------------

    def submit_migrate(self, src_ppn: int, dst_ppn: int,
                       size_pages: int = 1) -> WorkDescriptor:
        """ENQCMD a Migrate descriptor and process it."""
        flag = (MigrateFlag.START_COPY
                if self.mode is AccessMode.NONCACHEABLE
                else MigrateFlag.INSTALL_ONLY)
        desc = migrate_descriptor(src_ppn, dst_ppn, flag, size_pages)
        self.queue.enqcmd(desc)
        self._process()
        return desc

    def submit_clear(self, src_ppn: int) -> WorkDescriptor:
        """ENQCMD a Clear descriptor and process it."""
        desc = clear_descriptor(src_ppn)
        self.queue.enqcmd(desc)
        self._process()
        return desc

    def _process(self) -> None:
        while (desc := self.queue.pop()) is not None:
            if desc.kind is CommandKind.MIGRATE:
                entry = MigrationEntry(
                    desc.src_ppn, desc.dst_ppn, mode=self.mode,
                    copying=(desc.flag is MigrateFlag.START_COPY),
                    size_pages=desc.size_pages)
                self.table.install(entry)
                self._dirty_dst.setdefault(desc.src_ppn, set())
            else:
                entry = self.table.clear(desc.src_ppn)
                if not entry.done:
                    raise HardwareProtocolError(
                        f"Clear before copy completion (ptr={entry.ptr})")
                self._dirty_dst.pop(desc.src_ppn, None)
                for line in range(entry.total_lines):
                    self._private.pop((desc.src_ppn, line), None)
                self.stats.migrations += 1
            desc.complete()

    def start_copy(self, src_ppn: int) -> None:
        """Cacheable design: the OS signals that every TLB now holds the
        destination mapping, so the background copy may begin."""
        entry = self._entry(src_ppn)
        entry.copying = True

    # ------------------------------------------------------------------
    # Copy machinery
    # ------------------------------------------------------------------

    def copy_lines(self, src_ppn: int, max_lines: int | None = None) -> int:
        """Advance the copy by up to *max_lines*; returns cycles spent.

        Each line: metadata-table read, BusRdX on source and destination
        (invalidating private copies), the copy itself in the LLC, and a
        cross-slice write + ack when the two lines home on different
        slices.  Dirty destination lines (cacheable mode) are skipped.
        """
        p = self.params
        entry = self._entry(src_ppn)
        if not entry.copying:
            raise HardwareProtocolError(
                "copy not started (cacheable design needs start_copy)")
        budget = entry.total_lines if max_lines is None else max_lines
        cycles = 0
        dirty = self._dirty_dst.get(src_ppn, set())
        while budget > 0 and not entry.done:
            line = entry.ptr
            page_off, line_off = divmod(line, LINES_PER_PAGE)
            src_line = (entry.src_ppn + page_off) * LINES_PER_PAGE + line_off
            dst_line = (entry.dst_ppn + page_off) * LINES_PER_PAGE + line_off
            cycles += p.hw_table_latency
            if line in dirty:
                # Destination already holds the newest data; skip.
                entry.ptr += 1
                budget -= 1
                continue
            src_slice = self.llc.home_slice(src_line)
            dst_slice = self.llc.home_slice(dst_line)
            # BusRdX both lines: pull newest source data into the LLC and
            # invalidate stale private copies.
            cycles += p.l2_latency
            self._private.pop((src_ppn, line), None)
            self.llc.slices[src_slice].access(src_line)
            cycles += p.l3_latency  # the copy at the home slice
            if dst_slice != src_slice:
                cycles += self.llc.cross_slice_write_cycles(
                    src_slice, dst_slice)
                self.stats.cross_slice_writes += 1
            self.llc.slices[dst_slice].access(dst_line)
            entry.ptr += 1
            self.stats.lines_copied += 1
            budget -= 1
        self.stats.busy_cycles += cycles
        return cycles

    # ------------------------------------------------------------------
    # Request path (Fig. 8c step 4 / Fig. 9 steps 5-6)
    # ------------------------------------------------------------------

    def access(self, ppn: int, line_offset: int,
               mapping: str = "src", write: bool = False) -> int:
        """Service a request for *line_offset* of a page.

        ``mapping`` says which translation the requesting TLB used ("src"
        or "dst") — during a migration both are live.  Returns the PPN
        that actually served the data.
        """
        entry = self.table.lookup_covering(ppn)
        if entry is None:
            # Not under migration: normal access.
            self.llc.access(ppn * LINES_PER_PAGE + line_offset)
            return ppn

        page_off = ppn - entry.src_ppn
        global_line = page_off * LINES_PER_PAGE + line_offset
        if entry.mode is AccessMode.CACHEABLE:
            self._enforce_single_mapping(entry, global_line, mapping)
            if write and mapping == "dst":
                self._dirty_dst[entry.src_ppn].add(global_line)

        serving = entry.redirect(line_offset, page_off)
        if serving != ppn:
            self.stats.redirected_accesses += 1
        self.llc.access(serving * LINES_PER_PAGE + line_offset)
        return serving

    def _enforce_single_mapping(self, entry: MigrationEntry,
                                line: int, mapping: str) -> None:
        """Cacheable-design invariant: a line may be cached privately under
        at most one of the two mappings; a request under the opposite
        mapping invalidates the cached copy first (§3.3)."""
        key = (entry.src_ppn, line)
        current = self._private.get(key)
        if current is not None and current != mapping:
            self.stats.nacks += 1
        self._private[key] = mapping

    # ------------------------------------------------------------------
    # Design-space estimation (sequential vs parallel slice copy, §3.3)
    # ------------------------------------------------------------------

    def estimate_copy_cycles(self, src_ppn: int, dst_ppn: int,
                             parallel_slices: bool = False) -> int:
        """Copy latency under the two slice-coordination designs.

        The shipped design hands off sequentially between slices (simpler,
        gentler on the interconnect); the alternative lets every slice
        copy its lines concurrently, making latency the max over slices
        instead of the sum (paper §3.3, "Distributed Last-level Cache
        Slices").  Pure estimation — no state is modified.
        """
        p = self.params
        per_slice: dict[int, int] = {}
        for line in range(LINES_PER_PAGE):
            src_line = src_ppn * LINES_PER_PAGE + line
            dst_line = dst_ppn * LINES_PER_PAGE + line
            s = self.llc.home_slice(src_line)
            d = self.llc.home_slice(dst_line)
            cost = p.hw_table_latency + p.l2_latency + p.l3_latency
            if d != s:
                cost += self.llc.cross_slice_write_cycles(s, d)
            per_slice[s] = per_slice.get(s, 0) + cost
        if parallel_slices:
            return max(per_slice.values())
        handoffs = (len(per_slice) - 1) * p.ring_hop_cycles
        return sum(per_slice.values()) + handoffs

    # ------------------------------------------------------------------

    def _entry(self, src_ppn: int) -> MigrationEntry:
        entry = self.table.lookup(src_ppn)
        if entry is None:
            raise HardwareProtocolError(
                f"no migration in flight for PPN {src_ppn}")
        return entry
