"""Analytical SRAM cost model for the Contiguitas-HW metadata table.

A CACTI-like first-order model (§5.3): area, access energy, and leakage of
a small fully-associative SRAM structure at a 22 nm node, plus the sizing
argument — how many concurrent migrations a 16-entry table supports given
the kernel-entry window for lazy invalidations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..sim.params import DEFAULT_PARAMS, KERNEL_ENTRY_GAP_CYCLES

#: Die area of a server-class core at 22 nm (mm²), the denominator of
#: §5.3's ~0.014 % table-area figure.
CORE_AREA_MM2 = 27.0
#: Microseconds one migration's copy holds its table entry (§5.3).
MIGRATION_COPY_US = 5.0


@dataclass(frozen=True)
class SramCostModel:
    """First-order SRAM scaling at a given technology node.

    Defaults calibrated so the paper's 16-entry table lands at its CACTI
    numbers: 0.0038 mm², 0.0017 nJ/access, 0.64 mW leakage at 22 nm.
    """

    node_nm: float = 22.0
    #: mm^2 per bit of fully-associative storage (CAM+RAM overhead folded
    #: in) at the reference 22 nm node.
    mm2_per_bit: float = 2.6e-6
    #: nJ per access per bit.
    nj_per_access_per_bit: float = 1.2e-6
    #: mW leakage per bit.
    mw_leakage_per_bit: float = 4.4e-4

    def scale(self) -> float:
        """Area scale factor relative to 22 nm (quadratic in feature
        size)."""
        return (self.node_nm / 22.0) ** 2


@dataclass(frozen=True)
class MetadataTableCost:
    """Cost of one per-slice metadata table."""

    entries: int = 16
    #: Bits per entry: two 40-bit PPNs, 6-bit Ptr, valid + mode bits.
    bits_per_entry: int = 40 + 40 + 6 + 2

    def total_bits(self) -> int:
        return self.entries * self.bits_per_entry

    def area_mm2(self) -> float:
        model = SramCostModel()
        return self.total_bits() * model.mm2_per_bit * model.scale()

    def energy_per_access_nj(self) -> float:
        return self.total_bits() * SramCostModel().nj_per_access_per_bit

    def leakage_mw(self) -> float:
        return self.total_bits() * SramCostModel().mw_leakage_per_bit

    def fraction_of_core_area(self) -> float:
        """Table area relative to a server-class core (§5.3: ~0.014 %)."""
        return self.area_mm2() / CORE_AREA_MM2


def migrations_per_second_capacity(entries: int = 16) -> float:
    """Theoretical migration throughput of the metadata table (§5.3).

    Each migration holds its entry for roughly one kernel-entry window
    (the lazy local invalidations must all land) plus the copy itself; the
    paper budgets 30 µs and notes a single entry already sustains far more
    migrations/second than any realistic rate.
    """
    if entries <= 0:
        raise ConfigurationError("entries must be positive")
    hold_us = (DEFAULT_PARAMS.cycles_to_us(KERNEL_ENTRY_GAP_CYCLES)
               + MIGRATION_COPY_US)
    return entries * 1_000_000.0 / hold_us
