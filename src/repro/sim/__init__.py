"""Hardware simulation substrate: event engine, caches, TLBs, shootdowns.

Cycle-accounting models of the paper's Table-1 platform.  These power the
Contiguitas-HW characterisation (Fig. 13, §5.3): the baseline IPI shootdown
protocol, the TLB hierarchy with page-walk caches, and the sliced LLC the
migration engine lives in.
"""

from .cache import SetAssocCache, SlicedLLC, slice_of
from .core import CoreStats, TimingCore
from .engine import EventQueue
from .iommu import DeviceTlb, Iommu
from .params import DEFAULT_PARAMS, ArchParams
from .shootdown import (
    MigrationTimeline,
    page_copy_cycles,
    simulate_contiguitas_migration,
    simulate_linux_migration,
)
from .tlb import (
    SHIFT_1G,
    SHIFT_2M,
    SHIFT_4K,
    PageWalkCache,
    SetAssocTLB,
    TLBHierarchy,
    WalkStats,
)
from .trace import TraceSpec, generate_addresses

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
