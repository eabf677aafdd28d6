"""TLB hierarchy and page-walk model.

Models the translation path of the paper's Table-1 platform: per-core L1
and L2 TLBs (set-associative, LRU) and three levels of page-walk caches.
Multiple page sizes are first-class: an access is translated at the page
granularity of its mapping, so 2 MiB/1 GiB mappings multiply TLB reach —
the effect every contiguity experiment in the paper ultimately cashes in.

The page-walk cost model: a 4-level x86-64 walk needs up to 4 memory
accesses; PWC hits skip upper levels, and each remaining level costs a
configurable memory access (LLC-resident page tables for small footprints,
DRAM for large ones).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..telemetry import tracepoint
from .params import ArchParams

# One event per completed page walk (TLB probes are far too hot to
# trace individually; the walk is the interesting, expensive event).
_tp_walk = tracepoint("sim.tlb.walk")

#: Page-size shifts: 4 KiB, 2 MiB, 1 GiB.
SHIFT_4K = 12
SHIFT_2M = 21
SHIFT_1G = 30

#: Page-table levels skipped at the leaf for each mapping size.
_LEVELS_BY_SHIFT = {SHIFT_4K: 4, SHIFT_2M: 3, SHIFT_1G: 2}


class SetAssocTLB:
    """A set-associative LRU TLB keyed by (vpn, page_shift).

    Like real designs, different page sizes share capacity (L2 STLB) —
    entries are tagged with their page size.
    """

    def __init__(self, entries: int, ways: int, label: str = "tlb") -> None:
        if entries % ways:
            raise ConfigurationError(f"{label}: {entries} % {ways} != 0")
        self.nsets = entries // ways
        self.ways = ways
        self.label = label
        self._sets: list[dict[tuple[int, int], int]] = [
            dict() for _ in range(self.nsets)
        ]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _set_of(self, vpn: int) -> dict[tuple[int, int], int]:
        return self._sets[vpn % self.nsets]

    def lookup(self, vpn: int, shift: int) -> bool:
        """Probe without filling."""
        key = (vpn, shift)
        entry = self._sets[vpn % self.nsets]
        if key in entry:
            self._stamp += 1
            entry[key] = self._stamp
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, vpn: int, shift: int) -> None:
        """Install a translation, evicting LRU on conflict."""
        self._stamp += 1
        entry = self._set_of(vpn)
        if len(entry) >= self.ways:
            victim = min(entry, key=entry.__getitem__)
            del entry[victim]
        entry[(vpn, shift)] = self._stamp

    def flush(self) -> None:
        for entry in self._sets:
            entry.clear()


class PageWalkCache:
    """Fully associative LRU cache of upper-level page-table entries."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self._cache: dict[int, int] = {}
        self._stamp = 0

    def lookup(self, key: int) -> bool:
        if key in self._cache:
            self._stamp += 1
            self._cache[key] = self._stamp
            return True
        return False

    def fill(self, key: int) -> None:
        self._stamp += 1
        if len(self._cache) >= self.entries:
            victim = min(self._cache, key=self._cache.__getitem__)
            del self._cache[victim]
        self._cache[key] = self._stamp

    def flush(self) -> None:
        self._cache.clear()


@dataclass
class WalkStats:
    """Aggregate translation statistics for one simulation run."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0
    walk_cycles: int = 0
    translation_cycles: int = 0

    def snapshot(self) -> dict:
        """Counters as a plain dict (the telemetry ``snapshot()`` surface)."""
        return {
            "accesses": self.accesses,
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "walks": self.walks,
            "walk_cycles": self.walk_cycles,
            "translation_cycles": self.translation_cycles,
        }

    def merge(self, other: "WalkStats | dict") -> "WalkStats":
        """Fold another run's counters into this one (e.g. across cores)."""
        get = other.get if isinstance(other, dict) else other.snapshot().get
        self.accesses += get("accesses", 0)
        self.l1_hits += get("l1_hits", 0)
        self.l2_hits += get("l2_hits", 0)
        self.walks += get("walks", 0)
        self.walk_cycles += get("walk_cycles", 0)
        self.translation_cycles += get("translation_cycles", 0)
        return self


class TLBHierarchy:
    """One core's L1 TLB + L2 STLB + page-walk caches.

    Args:
        params: architectural latencies/sizes.
        pt_access_cycles: cost of one page-table memory access during a
            walk (the caller picks LLC- or DRAM-resident based on
            footprint).
    """

    def __init__(self, params: ArchParams,
                 pt_access_cycles: int | None = None) -> None:
        self.params = params
        self.l1 = SetAssocTLB(params.l1_tlb_entries, params.l1_tlb_ways,
                              label="l1-tlb")
        self.l2 = SetAssocTLB(params.l2_tlb_entries, params.l2_tlb_ways,
                              label="l2-tlb")
        # Dedicated fully-associative 1 GiB TLB; gigapage translations are
        # not cached by the L2 STLB (matching real Intel parts).
        self.l1_1g = SetAssocTLB(params.l1_tlb_1g_entries,
                                 params.l1_tlb_1g_entries, label="l1-tlb-1g")
        # One PWC per upper level: PML4, PDPT, PD.
        self.pwcs = [PageWalkCache(params.pwc_entries)
                     for _ in range(params.pwc_levels)]
        self.pt_access_cycles = (params.l3_latency
                                 if pt_access_cycles is None
                                 else pt_access_cycles)
        self.stats = WalkStats()

    def translate(self, vaddr: int, shift: int) -> int:
        """Translate a virtual address mapped at page size ``1 << shift``.

        Returns the cycles spent on translation (TLB probes plus, on a
        miss, the page walk) and updates :attr:`stats`.
        """
        p = self.params
        vpn = vaddr >> shift
        self.stats.accesses += 1

        if shift == SHIFT_1G:
            cycles = p.l1_tlb_latency
            if self.l1_1g.lookup(vpn, shift):
                self.stats.l1_hits += 1
                self.stats.translation_cycles += cycles
                return cycles
            walk = self._walk(vaddr, shift)
            cycles += walk
            self.l1_1g.fill(vpn, shift)
            self.stats.walks += 1
            self.stats.walk_cycles += walk
            self.stats.translation_cycles += cycles
            return cycles

        cycles = p.l1_tlb_latency
        if self.l1.lookup(vpn, shift):
            self.stats.l1_hits += 1
            self.stats.translation_cycles += cycles
            return cycles

        cycles += p.l2_tlb_latency
        if self.l2.lookup(vpn, shift):
            self.stats.l2_hits += 1
            self.l1.fill(vpn, shift)
            self.stats.translation_cycles += cycles
            return cycles

        walk = self._walk(vaddr, shift)
        cycles += walk
        self.l2.fill(vpn, shift)
        self.l1.fill(vpn, shift)
        self.stats.walks += 1
        self.stats.walk_cycles += walk
        self.stats.translation_cycles += cycles
        return cycles

    def _walk(self, vaddr: int, shift: int) -> int:
        """Cost of the radix walk, with PWC short-circuiting.

        PWC ``i`` (1-based) caches the table entry *i* levels above the
        leaf — for 4 KiB mappings, PWC 1 holds PD entries (each covering
        2 MiB of address space), PWC 2 PDPT entries (1 GiB), PWC 3 PML4
        entries (512 GiB).  A hit at distance *i* leaves exactly *i*
        page-table accesses; a clean miss walks all levels.
        """
        p = self.params
        levels = _LEVELS_BY_SHIFT[shift]
        upper = min(levels - 1, p.pwc_levels)
        remaining = levels
        cycles = p.pwc_latency  # parallel PWC probe
        for i in range(1, upper + 1):
            if self.pwcs[i - 1].lookup(vaddr >> (shift + 9 * i)):
                remaining = i
                break
        cycles += remaining * self.pt_access_cycles
        # Refill the PWCs with the entries this walk traversed.
        for i in range(1, upper + 1):
            self.pwcs[i - 1].fill(vaddr >> (shift + 9 * i))
        if _tp_walk.enabled:
            _tp_walk.emit(vpn=vaddr >> shift, shift=shift,
                          levels=remaining, cycles=cycles)
        return cycles

    def reset_stats(self) -> None:
        """Zero the counters, keeping TLB/PWC contents (end of warmup)."""
        self.stats = WalkStats()

    def flush(self) -> None:
        """Full TLB flush (non-PCID shootdown fallback)."""
        self.l1.flush()
        self.l1_1g.flush()
        self.l2.flush()
        for pwc in self.pwcs:
            pwc.flush()
