"""Page-walk-cycle model (paper Fig. 3).

Runs a service's data and instruction access streams through the TLB
hierarchy with a configurable page-size backing and reports the share of
execution cycles lost to page walks — the quantity the paper reads from
performance counters on production hosts.

The backing is a :class:`PageSizeMix`: fractions of the footprint mapped
with 1 GiB and 2 MiB pages (lowest addresses first, where the hot set
lives — matching how HugeTLB reservations and khugepaged promotion land
in practice).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.params import ArchParams, DEFAULT_PARAMS
from ..sim.tlb import SHIFT_1G, SHIFT_2M, SHIFT_4K, TLBHierarchy
from ..sim.trace import TraceSpec, generate_addresses
from ..workloads.base import WorkloadSpec

#: Share of a trace, on top of the measured part, that warms the TLBs
#: and PWCs first: production counters measure steady state, not cold
#: start.
WARMUP_FRACTION = 0.5


@dataclass(frozen=True)
class PageSizeMix:
    """How a footprint is backed: fractions by page size (rest is 4 KiB)."""

    frac_1g: float = 0.0
    frac_2m: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.frac_1g <= 1 and 0 <= self.frac_2m <= 1
                and self.frac_1g + self.frac_2m <= 1 + 1e-9):
            raise ConfigurationError(f"bad page-size mix {self}")

    def shift_for(self, addr: int, footprint: int) -> int:
        """Mapping size of *addr* within a footprint backed low-to-high by
        1 GiB, then 2 MiB, then 4 KiB pages."""
        frac = addr / footprint
        if frac < self.frac_1g:
            return SHIFT_1G
        if frac < self.frac_1g + self.frac_2m:
            return SHIFT_2M
        return SHIFT_4K


#: The paper's three configurations for Fig. 3.
MIX_4K = PageSizeMix()
MIX_2M = PageSizeMix(frac_2m=1.0)
MIX_1G = PageSizeMix(frac_1g=1.0)


@dataclass
class WalkCycleResult:
    """Walk-cycle percentages for one (service, page-size mix) point."""

    data_pct: float
    instr_pct: float

    @property
    def total_pct(self) -> float:
        return self.data_pct + self.instr_pct


def _pt_access_cycles(params: ArchParams, footprint: int) -> int:
    """Page-table access cost during a walk: tables of large footprints
    spill past the LLC into DRAM."""
    llc = params.l3_slice_size * params.l3_slices
    return params.dram_latency if footprint > 8 * llc else params.l3_latency


def _run_stream(spec: TraceSpec, mix: PageSizeMix, n: int,
                seed: int) -> tuple[int, int]:
    """Simulate one access stream; returns (walk_cycles, accesses).

    The first :data:`WARMUP_FRACTION` of the trace warms the TLBs and
    PWCs; statistics count only the remainder.
    """
    tlb = TLBHierarchy(DEFAULT_PARAMS,
                       pt_access_cycles=_pt_access_cycles(
                           DEFAULT_PARAMS, spec.footprint_bytes))
    warm = int(n * WARMUP_FRACTION)
    addrs = generate_addresses(spec, n + warm, seed=seed)
    footprint = spec.footprint_bytes
    for addr in addrs[:warm].tolist():
        tlb.translate(addr, mix.shift_for(addr, footprint))
    tlb.reset_stats()
    for addr in addrs[warm:].tolist():
        tlb.translate(addr, mix.shift_for(addr, footprint))
    return tlb.stats.walk_cycles, n


def walk_cycles(
    spec: WorkloadSpec,
    data_mix: PageSizeMix,
    n_instructions: int = 200_000,
    seed: int = 0,
) -> WalkCycleResult:
    """Fig. 3's quantity for one service and page-size configuration.

    Simulates ``n_instructions`` worth of data and fetch translations and
    reports walk cycles as percentages of total execution cycles
    (``base_cpi`` per instruction plus all walk stalls).
    """
    # Instructions get huge pages whenever data does (the paper maps text
    # with huge pages for Web); 1 GiB text is unrealistic, cap instruction
    # mappings at 2 MiB.
    instr_mix = MIX_2M if (data_mix.frac_2m or data_mix.frac_1g) else MIX_4K
    n_data = int(n_instructions * spec.data_access_per_instr)
    n_fetch = int(n_instructions * spec.instr_fetch_per_instr)
    data_walk, _ = _run_stream(spec.data_trace, data_mix, n_data, seed)
    instr_walk, _ = _run_stream(spec.instr_trace, instr_mix, n_fetch,
                                seed + 1)
    exec_cycles = n_instructions * spec.base_cpi
    total = exec_cycles + data_walk + instr_walk
    return WalkCycleResult(
        data_pct=100.0 * data_walk / total,
        instr_pct=100.0 * instr_walk / total,
    )


def mix_for_coverage(coverage: dict[str, float]) -> PageSizeMix:
    """Translate a measured huge-page coverage (from
    :meth:`~repro.workloads.base.Workload.huge_coverage`) into a
    page-size mix for the walk model."""
    return PageSizeMix(frac_1g=coverage.get("1g", 0.0),
                       frac_2m=coverage.get("2m", 0.0))
