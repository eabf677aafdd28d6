"""Contiguitas: physical memory contiguity by design (ISCA 2023).

A frame-accurate reproduction of the paper's OS and hardware co-design:

* :mod:`repro.mm` — the Linux-like memory-management substrate (buddy
  allocator, migrate types, fallback stealing, compaction, THP, HugeTLB);
* :mod:`repro.kalloc` — kernel allocation sources (networking, slab,
  filesystems, page tables) that generate the unmovable mix;
* :mod:`repro.core` — Contiguitas itself: confined regions, Algorithm-1
  resizing, placement bias, and the Contiguitas-HW LLC migration engine;
* :mod:`repro.sim` — the hardware models (TLBs, caches, shootdowns);
* :mod:`repro.workloads`, :mod:`repro.fleet`, :mod:`repro.perfmodel`,
  :mod:`repro.analysis` — the evaluation machinery for every figure.

Quickstart::

    from repro import ContiguitasConfig, ContiguitasKernel
    from repro.units import MiB

    kernel = ContiguitasKernel(ContiguitasConfig(mem_bytes=MiB(256)))
    page = kernel.alloc_pages(0)
    huge = kernel.alloc_thp()
"""

from ._lazy import lazy_exports
from .errors import (
    ConfigurationError,
    ContiguityError,
    HardwareProtocolError,
    MigrationError,
    OutOfMemoryError,
    ReproError,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("ContiguitasConfig", "ContiguitasKernel", "IlluminatorKernel",
              "PlacementPolicy", "RegionLayout", "RegionResizer",
              "ResizeConfig"),
    ".core.hwext": ("AccessMode", "HwMigrationEngine"),
    ".mm": ("AllocSource", "KernelConfig", "LinuxKernel", "MigrateType",
            "PageHandle"),
    ".workloads": ("Workload", "WorkloadSpec"),
})

__version__ = "1.0.0"

__all__ = [
    "AccessMode",
    "AllocSource",
    "ConfigurationError",
    "ContiguitasConfig",
    "ContiguitasKernel",
    "ContiguityError",
    "HardwareProtocolError",
    "HwMigrationEngine",
    "IlluminatorKernel",
    "KernelConfig",
    "LinuxKernel",
    "MigrateType",
    "MigrationError",
    "OutOfMemoryError",
    "PageHandle",
    "PlacementPolicy",
    "RegionLayout",
    "RegionResizer",
    "ReproError",
    "ResizeConfig",
    "Workload",
    "WorkloadSpec",
    "__version__",
]
