"""Time-series recording of kernel metrics during a simulation.

Benchmarks and examples attach a :class:`TimelineRecorder` to a running
workload and snapshot named metrics at intervals; the result reads back as
per-metric series.  This is the simulator's equivalent of the paper's
15-minute fleet profiling cadence (§5.2: "profile the servers once every
15 minutes").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import ConfigurationError


@dataclass
class TimelineRecorder:
    """Samples named metric callables on demand.

    Args:
        metrics: mapping of column name to zero-argument callable.
    """

    metrics: dict[str, Callable[[], float]]
    rows: list[tuple[int, dict[str, float]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ConfigurationError("need at least one metric")

    def sample(self, step: int) -> dict[str, float]:
        """Record one row at *step*; returns the sampled values."""
        values = {name: float(fn()) for name, fn in self.metrics.items()}
        self.rows.append((step, values))
        return values

    def series(self, name: str) -> list[float]:
        """All samples of one metric, in time order."""
        if name not in self.metrics:
            raise ConfigurationError(f"unknown metric {name!r}")
        return [values[name] for _, values in self.rows]

    def steps(self) -> list[int]:
        return [step for step, _ in self.rows]

    def final(self, name: str) -> float:
        """Last recorded value of a metric."""
        series = self.series(name)
        if not series:
            raise ConfigurationError("no samples recorded")
        return series[-1]


def watch_kernel(kernel) -> TimelineRecorder:
    """A ready-made recorder for the metrics every experiment wants."""
    from ..units import PAGEBLOCK_FRAMES
    from .contiguity import unmovable_block_fraction

    metrics: dict[str, Callable[[], float]] = {
        "free_frames": kernel.free_frames,
        "unmovable_2m_blocks": lambda: unmovable_block_fraction(
            kernel.mem, PAGEBLOCK_FRAMES),
        "psi": lambda: kernel.psi.pressure,
    }
    if hasattr(kernel, "layout"):
        metrics["unmovable_region_blocks"] = (
            lambda: kernel.layout.unmovable_blocks)
    return TimelineRecorder(metrics=metrics)
