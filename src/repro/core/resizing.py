"""Region-resizing: the paper's Algorithm 1.

The resizer computes a target unmovable-region size from the two per-region
pressures and moves the boundary toward it, one pageblock at a time:

* **expand** (unmovable pressure high, movable pressure low): evacuate the
  movable pageblock adjacent to the boundary and hand it to the unmovable
  region;
* **shrink** (every other case): return free boundary pageblocks to the
  movable region.  Without hardware support a shrink stops at the first
  boundary block still holding unmovable pages; with Contiguitas-HW those
  pages are migrated deeper into the region first.

Resizing runs off the allocation critical path: the kernel facade invokes
:meth:`RegionResizer.run` from its periodic-reclaim hook (paper §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ResizeConfig:
    """Algorithm-1 thresholds and coefficients.

    The paper sets these empirically per fleet; defaults here are tuned so
    the simulated workloads keep the unmovable region within a few percent
    of its demand.  ``threshold_*`` are pressure percentages;
    ``c_ue``/``c_me`` scale expansion, ``c_ms``/``c_us`` scale shrinking.
    """

    threshold_unmov: float = 5.0
    threshold_mov: float = 5.0
    c_ue: float = 0.10   # unmovable-pressure term, expansion
    c_me: float = 0.02   # movable-headroom term, expansion
    c_ms: float = 0.10   # movable-pressure term, shrink
    c_us: float = 0.02   # unmovable-headroom term, shrink
    #: Largest boundary move per resize invocation, in pageblocks.
    max_step_blocks: int = 64

    def __post_init__(self) -> None:
        if self.threshold_unmov <= 0 or self.threshold_mov <= 0:
            raise ConfigurationError("thresholds must be positive")
        for name in ("c_ue", "c_me", "c_ms", "c_us"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


def target_unmovable_frames(
    pressure_unmov: float,
    pressure_mov: float,
    mem_unmov_frames: int,
    config: ResizeConfig,
) -> int:
    """Algorithm 1 verbatim: new unmovable-region size in frames.

    Expands when unmovable pressure is at/above threshold while movable
    pressure is below its own; shrinks in all other cases.  The expansion
    factor grows with unmovable pressure and with movable headroom; the
    shrink factor mirrors it.
    """
    t_u, t_m = config.threshold_unmov, config.threshold_mov
    if pressure_unmov >= t_u and pressure_mov < t_m:
        factor = (pressure_unmov / t_u) * config.c_ue \
            + (t_m / max(pressure_mov, 1.0)) * config.c_me
        return int((1.0 + factor) * mem_unmov_frames)
    factor = (pressure_mov / t_m) * config.c_ms \
        + (t_u / max(pressure_unmov, 1.0)) * config.c_us
    return int((1.0 - factor) * mem_unmov_frames)


class RegionResizer:
    """Drives boundary moves toward the Algorithm-1 target.

    The resizer is deliberately mechanism-free: the kernel facade supplies
    ``expand_one``/``shrink_one`` callbacks that perform (and may refuse)
    a single one-pageblock boundary move.
    """

    def __init__(self, config: ResizeConfig | None = None) -> None:
        self.config = config or ResizeConfig()
        #: Lifetime counters, for reporting.
        self.expands = 0
        self.shrinks = 0
        self.blocked_expands = 0
        self.blocked_shrinks = 0

    def snapshot(self) -> list[int]:
        return [self.expands, self.shrinks, self.blocked_expands,
                self.blocked_shrinks]

    def restore(self, state: list[int]) -> None:
        (self.expands, self.shrinks, self.blocked_expands,
         self.blocked_shrinks) = state

    def run(
        self,
        pressure_unmov: float,
        pressure_mov: float,
        current_unmov_frames: int,
        frames_per_block: int,
        expand_one,
        shrink_one,
    ) -> int:
        """Perform one resize pass; returns signed blocks moved
        (positive = unmovable region grew)."""
        target = target_unmovable_frames(
            pressure_unmov, pressure_mov, current_unmov_frames, self.config)
        delta_frames = target - current_unmov_frames
        # Round half-up to whole pageblocks: a percentage step on a small
        # region must still be able to move the boundary by one block,
        # otherwise the region can never converge to its target.
        steps = min((abs(delta_frames) + frames_per_block // 2)
                    // frames_per_block,
                    self.config.max_step_blocks)
        moved = 0
        for _ in range(steps):
            if delta_frames > 0:
                if not expand_one():
                    self.blocked_expands += 1
                    break
                self.expands += 1
                moved += 1
            else:
                if not shrink_one():
                    self.blocked_shrinks += 1
                    break
                self.shrinks += 1
                moved -= 1
        return moved
