"""Hardware-generation trends: memory capacity vs TLB coverage (Fig. 2).

Encodes the paper's observation across five generations of Meta compute
hardware: memory capacity grows ~8x while TLB entry counts stay flat at a
few thousand, so 4 KiB — and even 2 MiB — TLB coverage collapses relative
to memory, while 1 GiB pages still cover everything.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import GiB


@dataclass(frozen=True)
class HardwareGeneration:
    """One server generation's memory and TLB provisioning."""

    name: str
    memory_bytes: int
    tlb_entries: int

    def coverage(self, page_bytes: int) -> float:
        """TLB coverage as a fraction of memory capacity (capped at 1)."""
        return min(1.0, self.tlb_entries * page_bytes / self.memory_bytes)


#: Meta's five generations (§2.2): memory grows ~8x, TLBs stay ~1.5K.
GENERATIONS = (
    HardwareGeneration("Gen 1", GiB(64), 1536),
    HardwareGeneration("Gen 2", GiB(96), 1536),
    HardwareGeneration("Gen 3", GiB(160), 2048),
    HardwareGeneration("Gen 4", GiB(256), 2048),
    HardwareGeneration("Gen 5", GiB(512), 2048),
)


def generation_trends() -> list[dict[str, float]]:
    """Fig. 2's series: relative memory capacity and TLB coverage with
    4 KiB / 2 MiB / 1 GiB pages, normalised to the first generation."""
    base = GENERATIONS[0]
    rows = []
    for gen in GENERATIONS:
        rows.append({
            "generation": gen.name,
            "relative_capacity": gen.memory_bytes / base.memory_bytes,
            "coverage_4k": gen.coverage(4096),
            "coverage_2m": gen.coverage(2 << 20),
            "coverage_1g": gen.coverage(1 << 30),
        })
    return rows
