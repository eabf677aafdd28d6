"""Hardware simulation substrate: event engine, caches, TLBs, shootdowns.

Cycle-accounting models of the paper's Table-1 platform.  These power the
Contiguitas-HW characterisation (Fig. 13, §5.3): the baseline IPI shootdown
protocol, the TLB hierarchy with page-walk caches, and the sliced LLC the
migration engine lives in.
"""

from .._lazy import lazy_exports

__all__ = [
    "ArchParams",
    "CoreStats",
    "DEFAULT_PARAMS",
    "DeviceTlb",
    "EventQueue",
    "Iommu",
    "MigrationTimeline",
    "PageWalkCache",
    "SHIFT_1G",
    "SHIFT_2M",
    "SHIFT_4K",
    "SetAssocCache",
    "SetAssocTLB",
    "SlicedLLC",
    "TLBHierarchy",
    "TimingCore",
    "TraceSpec",
    "WalkStats",
    "generate_addresses",
    "page_copy_cycles",
    "simulate_contiguitas_migration",
    "simulate_linux_migration",
    "slice_of",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("SetAssocCache", "SlicedLLC", "slice_of"),
    ".core": ("CoreStats", "TimingCore"),
    ".engine": ("EventQueue",),
    ".iommu": ("DeviceTlb", "Iommu"),
    ".params": ("DEFAULT_PARAMS", "ArchParams"),
    ".shootdown": ("MigrationTimeline", "page_copy_cycles",
                   "simulate_contiguitas_migration",
                   "simulate_linux_migration"),
    ".tlb": ("SHIFT_1G", "SHIFT_2M", "SHIFT_4K", "PageWalkCache", "SetAssocTLB",
             "TLBHierarchy", "WalkStats"),
    ".trace": ("TraceSpec", "generate_addresses"),
})
