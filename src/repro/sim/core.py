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

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def walk_share(self) -> float:
        """Fraction of cycles in address translation (Fig. 3's numerator
        when fed a per-workload trace)."""
        return (self.translation_cycles / self.cycles) if self.cycles else 0.0


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

    def execute(self, vaddr: int | None = None, shift: int = SHIFT_4K,
                paddr: int | None = None) -> float:
        """Retire one instruction; memory ops pass a virtual address.

        Returns the cycles charged.  Translation stalls are charged in
        full (the paper's page walks serialise address generation); the
        data access is discounted by the overlap factor.
        """
        p = self.params
        cycles = 1.0 / p.issue_width
        if vaddr is not None:
            xlat = self.tlb.translate(vaddr, shift)
            cycles += xlat
            self.stats.translation_cycles += xlat
            data = self.data_access_cycles(
                paddr if paddr is not None else vaddr)
            exposed = data * (1.0 - self.overlap)
            cycles += exposed
            self.stats.data_cycles += exposed
        self.stats.instructions += 1
        self.stats.cycles += cycles
        return cycles
