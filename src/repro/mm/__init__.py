"""Linux-like memory-management substrate.

Frame-accurate models of the pieces of the Linux page allocator that drive
fragmentation: buddy free lists with migrate types, pageblock fallback
stealing, compaction, reclaim, THP, and contiguous-range allocation.
"""

from .buddy import BuddyAllocator
from .compaction import CompactionResult, Compactor
from .contig import EvacuationResult, RangeEvacuator
from .handle import HandleRegistry, PageHandle
from .kernel import DEFAULT_MIGRATETYPE, KernelConfig, LinuxKernel
from .migrate import MigrationCostModel, can_migrate_sw, move_allocation
from .page import AllocationInfo, AllocSource, MigrateType, PageFlag
from .pageblock import PageblockTable
from .pcp import PerCpuPages
from .physmem import PhysicalMemory
from .psi import PsiTracker
from .reclaim import ReclaimLRU, Watermarks
from .vmstat import VmStat

__all__ = [
    "AllocSource",
    "AllocationInfo",
    "BuddyAllocator",
    "CompactionResult",
    "Compactor",
    "DEFAULT_MIGRATETYPE",
    "EvacuationResult",
    "HandleRegistry",
    "KernelConfig",
    "LinuxKernel",
    "MigrateType",
    "MigrationCostModel",
    "PageFlag",
    "PageHandle",
    "PageblockTable",
    "PerCpuPages",
    "PhysicalMemory",
    "PsiTracker",
    "RangeEvacuator",
    "ReclaimLRU",
    "VmStat",
    "Watermarks",
    "can_migrate_sw",
    "move_allocation",
]
