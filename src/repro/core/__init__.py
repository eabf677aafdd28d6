"""Contiguitas: the paper's primary contribution.

OS side: confined movable/unmovable regions with dynamic Algorithm-1
resizing and placement bias (:class:`ContiguitasKernel`).  Hardware side:
the LLC migration engine that moves pages while they remain in use
(:mod:`repro.core.hwext`).
"""

from .._lazy import lazy_exports

__all__ = [
    "ContiguitasConfig",
    "ContiguitasKernel",
    "PlacementPolicy",
    "Region",
    "RegionLayout",
    "RegionPressure",
    "RegionResizer",
    "ResizeConfig",
    "TuneOutcome",
    "random_search",
    "replay_demand",
    "target_unmovable_frames",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".autotune": ("TuneOutcome", "random_search", "replay_demand"),
    ".kernel": ("ContiguitasConfig", "ContiguitasKernel"),
    ".placement": ("PlacementPolicy",),
    ".pressure": ("Region", "RegionPressure"),
    ".regions": ("RegionLayout",),
    ".resizing": ("RegionResizer", "ResizeConfig", "target_unmovable_frames"),
})
