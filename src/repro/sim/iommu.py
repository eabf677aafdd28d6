"""IOMMU, IOTLB, and device TLBs (paper §2.1, §3.3 platform).

Devices translate DMA addresses through the IOMMU, which performs page
walks and caches translations in its IOTLB; devices like NICs additionally
cache translations in their own device TLBs (PCIe ATS).  Invalidation is
queue-based: the core posts invalidation descriptors to an in-memory
queue, the IOMMU processes them, invalidates its IOTLB, forwards device-
TLB invalidations, and signals completion with a wait descriptor.

This matters for the paper because a page used for DMA *cannot be blocked*
while these invalidations run — a device access mid-migration would read
or corrupt a page being copied.  Contiguitas-HW removes the problem: both
mappings stay valid during the copy, so device TLBs can be invalidated
lazily by any core, with no synchronous drain.
"""

from __future__ import annotations

from .params import ArchParams, DEFAULT_PARAMS
from .tlb import SHIFT_4K, SetAssocTLB


class DeviceTlb:
    """A device-side TLB (e.g. on a NIC), filled via ATS from the IOMMU."""

    def __init__(self, entries: int = 64, ways: int | None = None,
                 label: str = "nic-tlb") -> None:
        self.tlb = SetAssocTLB(entries, ways or entries, label=label)

    def lookup(self, iova_vpn: int, shift: int = SHIFT_4K) -> bool:
        return self.tlb.lookup(iova_vpn, shift)

    def fill(self, iova_vpn: int, shift: int = SHIFT_4K) -> None:
        self.tlb.fill(iova_vpn, shift)


class Iommu:
    """The IOMMU: IOTLB + the latency of queued invalidation.

    Args:
        params: architectural latencies.
        iotlb_entries: IOTLB capacity (fully associative model).
    """

    #: Cycles for the IOMMU to fetch and process one queue descriptor.
    DESCRIPTOR_CYCLES = 150
    #: Cycles for an invalidation round trip to a device TLB (PCIe).
    DEVICE_INVALIDATE_CYCLES = 700

    def __init__(self, params: ArchParams | None = None,
                 iotlb_entries: int = 128) -> None:
        self.params = params or DEFAULT_PARAMS
        self.iotlb = SetAssocTLB(iotlb_entries, iotlb_entries,
                                 label="iotlb")
        self.devices: list[DeviceTlb] = []
        self.walks = 0

    def attach_device(self, device: DeviceTlb) -> None:
        self.devices.append(device)

    # ------------------------------------------------------------------
    # Translation path (DMA)
    # ------------------------------------------------------------------

    def translate(self, iova_vpn: int, shift: int = SHIFT_4K) -> int:
        """Translate a device access; returns cycles spent."""
        if self.iotlb.lookup(iova_vpn, shift):
            return self.params.l1_tlb_latency
        # IOMMU page walk: same radix tree, typically uncached tables.
        self.walks += 1
        self.iotlb.fill(iova_vpn, shift)
        return self.params.l1_tlb_latency + 2 * self.params.dram_latency

    # ------------------------------------------------------------------
    # Invalidation path
    # ------------------------------------------------------------------

    def synchronous_invalidate_cycles(self) -> int:
        """Cost of the baseline flow for one page: post, drain, and *wait*
        for completion before a migration may proceed — the device-side
        analogue of the IPI shootdown (Fig. 1)."""
        return self.DESCRIPTOR_CYCLES + len(self.devices) * \
            self.DEVICE_INVALIDATE_CYCLES
