"""Contiguitas: the paper's primary contribution.

OS side: confined movable/unmovable regions with dynamic Algorithm-1
resizing and placement bias (:class:`ContiguitasKernel`).  Hardware side:
the LLC migration engine that moves pages while they remain in use
(:mod:`repro.core.hwext`).
"""

from .autotune import TuneOutcome, random_search, replay_demand
from .kernel import ContiguitasConfig, ContiguitasKernel
from .placement import PlacementPolicy
from .pressure import Region, RegionPressure
from .regions import RegionLayout
from .resizing import RegionResizer, ResizeConfig, target_unmovable_frames

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
