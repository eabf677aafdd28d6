"""Architectural parameters (paper Table 1).

One frozen dataclass holds every latency and size the hardware models use,
with defaults equal to the paper's full-system simulation configuration:
8 four-issue OoO cores at 2 GHz, private L1/L2, a sliced 2 MiB-per-core L3,
two-level TLBs with three page-walk-cache levels, and the Contiguitas-HW
metadata table (16 entries per slice, ~1-cycle access).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ArchParams:
    """Table 1, plus a few derived/auxiliary costs.

    All latencies are in CPU cycles ("RT" = round trip, as in the paper).
    """

    # Multicore chip
    cores: int = 8
    issue_width: int = 4
    rob_entries: int = 200
    freq_ghz: float = 2.0

    # L1 cache: 32KB 8-way, 2-cycle RT, 64B lines
    l1_size: int = 32 * 1024
    l1_ways: int = 8
    l1_latency: int = 2
    line_bytes: int = 64

    # L1 TLB: 64 entries 4-way, 2-cycle RT
    l1_tlb_entries: int = 64
    l1_tlb_ways: int = 4
    l1_tlb_latency: int = 2

    # L2 TLB: 1536 entries 16-way, 12-cycle RT
    l2_tlb_entries: int = 1536
    l2_tlb_ways: int = 16
    l2_tlb_latency: int = 12

    # 1 GiB mappings use a small dedicated fully-associative L1 TLB and
    # are not cached by the L2 STLB (true of contemporary Intel parts);
    # this is why gigapages still leave residual walk cycles in Fig. 3.
    l1_tlb_1g_entries: int = 4

    # Page walk cache: 3 levels, 32 entries per level, FA, 2 cycles
    pwc_levels: int = 3
    pwc_entries: int = 32
    pwc_latency: int = 2

    # L2 cache: 256KB 8-way, 14-cycle RT
    l2_size: int = 256 * 1024
    l2_ways: int = 8
    l2_latency: int = 14

    # L3: 2MB slice per core, 16-way, 40-cycle RT
    l3_slice_size: int = 2 * 1024 * 1024
    l3_ways: int = 16
    l3_latency: int = 40

    # Contiguitas-HW metadata table: 16 entries FA, 1 cycle
    hw_table_entries: int = 16
    hw_table_latency: int = 1

    # Main memory: DDR4 3200 — ~60 ns access => ~120 cycles at 2 GHz.
    dram_latency: int = 120

    # TLB invalidation: measured INVLPG cost on real hardware (~250
    # cycles, §4 — dominated by the pipeline flush).
    invlpg_cycles: int = 250

    # IPI path costs for the baseline shootdown (Fig. 1): delivery from
    # initiator to a remote APIC, the remote interrupt entry/exit, and the
    # acknowledgment write seen by the initiator.
    ipi_deliver_cycles: int = 500
    ipi_handler_overhead_cycles: int = 300
    ipi_ack_cycles: int = 50
    #: Serialisation at the initiator when posting IPIs to multiple cores;
    #: this is what makes shootdown latency linear in victim count
    #: (Fig. 13's slope, ~750 cycles per extra victim TLB).
    ipi_post_gap_cycles: int = 750

    # Ring interconnect: per-hop latency between L3 slices.
    ring_hop_cycles: int = 5

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError("need at least one core")
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("line size must be a power of two")

    @property
    def lines_per_page(self) -> int:
        return 4096 // self.line_bytes

    @property
    def l3_slices(self) -> int:
        """One L3 slice per core, as in the simulated platform."""
        return self.cores

    def cycles_to_us(self, cycles: float) -> float:
        """Convert a cycle count to microseconds at the configured clock."""
        return cycles / (self.freq_ghz * 1000.0)


#: The paper's simulated platform.
DEFAULT_PARAMS = ArchParams()

#: Worst-case gap until a core next enters the kernel (a context switch
#: or syscall, every ~25 µs in production, §5.3): 25 µs at 2 GHz.  Lazy
#: local TLB invalidations all land within it.
KERNEL_ENTRY_GAP_CYCLES = 50_000
