"""Core timing model: CPI from caches + TLBs under a memory trace.

A deliberately simple out-of-order approximation in the spirit of the
paper's 4-issue/200-ROB cores (Table 1): each instruction pays an issue
slot; memory operations add translation cycles (the TLB hierarchy) and
data-access cycles (L1→L2→LLC→DRAM by occupancy simulation), discounted
by an overlap factor for the latency the ROB hides.  Good enough to turn
"walk cycles" and "cache misses" into end-to-end CPI — the quantity the
paper's RPS measurements move with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from .cache import SetAssocCache, SlicedLLC
from .params import ArchParams, DEFAULT_PARAMS
from .tlb import SHIFT_4K, TLBHierarchy


@dataclass
class CoreStats:
    """Cycle accounting of one trace run."""

    instructions: int = 0
    cycles: float = 0.0
    translation_cycles: float = 0.0
    data_cycles: float = 0.0


class TimingCore:
    """One core: private L1/L2, a shared sliced LLC, and a TLB hierarchy.

    Args:
        params: Table-1 latencies and sizes.
        llc: shared LLC (pass the same instance to model multiple cores).
        overlap: fraction of memory latency hidden by out-of-order
            execution (0 = fully exposed, 0.99 = almost free).
    """

    def __init__(self, params: ArchParams = DEFAULT_PARAMS,
                 llc: SlicedLLC | None = None,
                 overlap: float = 0.6) -> None:
        if not 0.0 <= overlap < 1.0:
            raise ConfigurationError(f"overlap {overlap} outside [0, 1)")
        self.params = params
        self.overlap = overlap
        self.l1 = SetAssocCache(params.l1_size, params.l1_ways,
                                params.line_bytes, label="l1d")
        self.l2 = SetAssocCache(params.l2_size, params.l2_ways,
                                params.line_bytes, label="l2")
        self.llc = llc or SlicedLLC(params)
        self.tlb = TLBHierarchy(params)
        self.stats = CoreStats()
        # What an L1-TLB + L1D hit charges, by the float operations the
        # two-call path below performs.
        self._hit_exposed = params.l1_latency * (1.0 - overlap)
        self._hit_cycles = (1.0 / params.issue_width
                            + params.l1_tlb_latency) + self._hit_exposed

    # ------------------------------------------------------------------

    def data_access_cycles(self, paddr: int) -> int:
        """Raw latency of one data access through the hierarchy."""
        p = self.params
        line = paddr // p.line_bytes
        if self.l1.access(line):
            return p.l1_latency
        if self.l2.access(line):
            return p.l2_latency
        hit, _ = self.llc.access(line)
        if hit:
            return p.l3_latency
        return p.l3_latency + p.dram_latency

    def retire(self, n: int) -> None:
        """Retire *n* non-memory instructions: *n* issue slots, no more.

        Bit-identical to *n* sequential ``cycles += 1 / issue_width``
        for the power-of-two widths (and clocks below 2**50, where a
        slot is still a whole number of ulps): inside one binade those
        adds are exact, so only the add that reaches the next power of
        two rounds — and the one-shot product would round the *sum* of
        several such crossings once instead.  For any other width this
        closed form is the definition.
        """
        if n < 0:
            raise ConfigurationError(f"cannot retire {n} instructions")
        stats = self.stats
        slot = 1.0 / self.params.issue_width
        clock = stats.cycles
        left = n
        while left:
            # Adds up to and including the first to reach 2**exponent
            # (all that are left, when they fit below it).
            limit = math.ldexp(1.0, math.frexp(clock)[1])
            k = math.ceil((limit - clock) / slot)
            if not 0 < k < left:
                k = left
            clock += k * slot
            left -= k
        stats.cycles = clock
        stats.instructions += n

    def execute(self, vaddr: int | None = None,
                shift: int = SHIFT_4K) -> float:
        """Retire one instruction; memory ops pass a virtual address.

        Returns the cycles charged.  Translation stalls are charged in
        full (the paper's page walks serialise address generation); the
        data access, which the caches see at *vaddr* too, is discounted
        by the overlap factor.
        """
        if vaddr is None:
            self.retire(1)
            return 1.0 / self.params.issue_width
        stats = self.stats
        if shift == SHIFT_4K:
            # The common case in one frame: probe the L1 TLB and L1D
            # sets, and on a double hit make exactly the changes
            # translate() and data_access_cycles() would make.
            tlb = self.tlb
            l1tlb, l1d = tlb.l1, self.l1
            vpn = vaddr >> SHIFT_4K
            key = (vpn, SHIFT_4K)
            tlb_set = l1tlb._sets[vpn % l1tlb.nsets]
            line = vaddr // self.params.line_bytes
            line_set = l1d._sets[line % l1d.nsets]
            if key in tlb_set and line in line_set:
                l1tlb._stamp += 1
                tlb_set[key] = l1tlb._stamp
                l1tlb.hits += 1
                walk = tlb.stats
                walk.accesses += 1
                walk.l1_hits += 1
                walk.translation_cycles += self.params.l1_tlb_latency
                l1d._stamp += 1
                line_set[line] = l1d._stamp
                l1d.hits += 1
                stats.translation_cycles += self.params.l1_tlb_latency
                stats.data_cycles += self._hit_exposed
                stats.instructions += 1
                stats.cycles += self._hit_cycles
                return self._hit_cycles
        cycles = 1.0 / self.params.issue_width
        xlat = self.tlb.translate(vaddr, shift)
        cycles += xlat
        stats.translation_cycles += xlat
        data = self.data_access_cycles(vaddr)
        exposed = data * (1.0 - self.overlap)
        cycles += exposed
        stats.data_cycles += exposed
        stats.instructions += 1
        stats.cycles += cycles
        return cycles
