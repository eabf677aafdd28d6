"""Measurement, reporting, and correctness tooling.

Contiguity scans, the HW cost model, and table rendering reproduce the
paper's measurements; :mod:`~repro.analysis.simlint` (static analysis)
and :mod:`~repro.analysis.sanitizer` (runtime frame-state checking) keep
the simulator itself honest — see ``docs/ANALYSIS.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".contiguity": ("SCAN_GRANULARITIES", "contiguity_report",
                    "free_block_count", "free_contiguity",
                    "movable_potential", "unmovable_block_fraction",
                    "unmovable_region_internal_frag", "unmovable_report"),
    ".hwcost": ("MetadataTableCost", "SramCostModel",
                "migrations_per_second_capacity"),
    ".reporting": ("format_table", "percent"),
    ".sanitizer": ("FrameSanitizer", "debug_vm_enabled", "verify_allocator",
                   "verify_kernel"),
    ".simlint": ("Finding", "lint_paths"),
    ".snapshot": ("MemorySnapshot", "load_snapshot", "save_snapshot"),
})

__all__ = [
    "Finding",
    "FrameSanitizer",
    "MemorySnapshot",
    "MetadataTableCost",
    "SCAN_GRANULARITIES",
    "SramCostModel",
    "contiguity_report",
    "debug_vm_enabled",
    "format_table",
    "free_block_count",
    "free_contiguity",
    "lint_paths",
    "migrations_per_second_capacity",
    "movable_potential",
    "percent",
    "unmovable_block_fraction",
    "unmovable_region_internal_frag",
    "load_snapshot",
    "save_snapshot",
    "unmovable_report",
    "verify_allocator",
    "verify_kernel",
]
