"""Kernel allocation sources.

Models of the subsystems the paper identifies as the producers of unmovable
memory (§2.5, Fig. 6): networking buffers (73 % of unmovable pages at
Meta), the slab allocator (12 %), filesystem buffers, and page tables.
Workloads drive these to generate a realistic unmovable allocation mix on
top of any kernel variant.
"""

from .netbuf import NetworkBufferPool, NetworkQueueConfig
from .pagetable import PageTableAllocator
from .slab import SlabAllocator, SlabCache
from .sources import SOURCE_MIX_META, SourceMix, unmovable_breakdown

__all__ = [
    "NetworkBufferPool",
    "NetworkQueueConfig",
    "PageTableAllocator",
    "SOURCE_MIX_META",
    "SlabAllocator",
    "SlabCache",
    "SourceMix",
    "unmovable_breakdown",
]
