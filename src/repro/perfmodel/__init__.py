"""Performance models: HW-generation trends, walk cycles, end-to-end RPS."""

from .endtoend import EndToEndResult, evaluate_configuration, perf_ratio
from .hwgen import GENERATIONS, HardwareGeneration, generation_trends
from .walkcycles import (
    MIX_1G,
    MIX_2M,
    MIX_4K,
    PageSizeMix,
    WalkCycleResult,
    mix_for_coverage,
    walk_cycles,
)

__all__ = [
    "EndToEndResult",
    "GENERATIONS",
    "HardwareGeneration",
    "MIX_1G",
    "MIX_2M",
    "MIX_4K",
    "PageSizeMix",
    "WalkCycleResult",
    "evaluate_configuration",
    "generation_trends",
    "mix_for_coverage",
    "perf_ratio",
    "walk_cycles",
]
