"""Automated resize-parameter search (the paper's stated future work).

§3.2: "Contiguitas sets parameters for dynamically resizing empirically ...
and we leave automated parameter space search as future work."  This
module implements that search: a scenario replays a demand trace for
unmovable memory against a Contiguitas kernel under a candidate
:class:`~repro.core.resizing.ResizeConfig`, and a random search over the
coefficient space minimises a cost combining

* **waste** — free memory parked in the unmovable region (movable memory
  the applications cannot use),
* **stalls** — unmovable-region pressure (demand hitting a too-small
  region pays synchronous expansions),
* **thrash** — boundary moves (each expansion migrates pages).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..mm.page import AllocSource
from ..units import MiB
from .kernel import ContiguitasConfig, ContiguitasKernel
from .resizing import ResizeConfig


def square_wave_demand(periods: int = 3, low_frames: int = 256,
                       high_frames: int = 2048,
                       steps_per_level: int = 40) -> list[int]:
    """A bursty demand trace: alternating low/high unmovable footprints,
    the pattern that punishes both sluggish and trigger-happy resizers."""
    trace: list[int] = []
    for _ in range(periods):
        trace.extend([low_frames] * steps_per_level)
        trace.extend([high_frames] * steps_per_level)
    return trace


@dataclass
class ScenarioResult:
    """Cost components of one scenario replay."""

    waste_frame_steps: int = 0
    stall_ticks: float = 0.0
    boundary_moves: int = 0

    def cost(self, waste_weight: float = 1.0,
             stall_weight: float = 200.0,
             move_weight: float = 2000.0) -> float:
        return (waste_weight * self.waste_frame_steps
                + stall_weight * self.stall_ticks
                + move_weight * self.boundary_moves)


def replay_demand(resize: ResizeConfig,
                  demand: list[int],
                  mem_bytes: int = MiB(64),
                  seed: int = 0) -> ScenarioResult:
    """Drive a Contiguitas kernel through *demand* (unmovable frames per
    step) and measure the resize policy's cost."""
    kernel = ContiguitasKernel(ContiguitasConfig(
        mem_bytes=mem_bytes, resize=resize))
    live: list = []
    result = ScenarioResult()
    from ..mm import vmstat as ev

    for want in demand:
        # Buffer pools drain stack-like: the newest buffers die first, so
        # falling demand vacates the most recently claimed (boundary-
        # adjacent) space and shrinking has a chance.
        while len(live) > want:
            kernel.free_pages(live.pop())
        while len(live) < want:
            live.append(kernel.alloc_pages(
                0, source=AllocSource.NETWORKING))
        kernel.advance(10_000)
        result.waste_frame_steps += kernel.unmovable.nr_free
    result.stall_ticks = (
        kernel.region_pressure._trackers[
            list(kernel.region_pressure._trackers)[0]].total_stall_ticks
        + kernel.region_pressure._trackers[
            list(kernel.region_pressure._trackers)[1]].total_stall_ticks)
    result.boundary_moves = (kernel.stat[ev.REGION_EXPAND]
                             + kernel.stat[ev.REGION_SHRINK])
    return result


@dataclass
class TuneOutcome:
    """Best configuration found by the search."""

    best: ResizeConfig
    best_cost: float
    baseline_cost: float
    trials: int
    history: list[tuple[ResizeConfig, float]] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fractional cost reduction vs the default configuration."""
        if self.baseline_cost == 0:
            return 0.0
        return 1.0 - self.best_cost / self.baseline_cost


def random_search(
    demand: list[int] | None = None,
    trials: int = 20,
    seed: int = 0,
) -> TuneOutcome:
    """Random search over the Algorithm-1 coefficient space.

    Samples thresholds in [1, 20] and coefficients log-uniformly in
    [0.005, 0.4]; every candidate replays the same demand trace.  The
    default :class:`ResizeConfig` is always evaluated first as the
    baseline, and the search never returns something worse.
    """
    if trials < 1:
        raise ConfigurationError("need at least one trial")
    demand = demand or square_wave_demand()
    rng = random.Random(seed)

    def sample() -> ResizeConfig:
        def coeff() -> float:
            lo, hi = 0.005, 0.4
            return lo * (hi / lo) ** rng.random()

        return ResizeConfig(
            threshold_unmov=rng.uniform(1.0, 20.0),
            threshold_mov=rng.uniform(1.0, 20.0),
            c_ue=coeff(), c_me=coeff(), c_ms=coeff(), c_us=coeff(),
        )

    baseline = ResizeConfig()
    baseline_cost = replay_demand(baseline, demand).cost()
    best, best_cost = baseline, baseline_cost
    history = [(baseline, baseline_cost)]
    for _ in range(trials):
        candidate = sample()
        cost = replay_demand(candidate, demand).cost()
        history.append((candidate, cost))
        if cost < best_cost:
            best, best_cost = candidate, cost
    return TuneOutcome(best=best, best_cost=best_cost,
                       baseline_cost=baseline_cost,
                       trials=trials, history=history)
