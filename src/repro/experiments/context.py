"""What a producer sees for one cell: :class:`ExperimentContext`.

Only :func:`repro.experiments.run_experiment` builds one, and only on a
cache miss, so a warm run never loads this module (docs/INTERNALS.md,
"Import tiers").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class ExperimentContext:
    """What a producer sees for one (config, seed) cell.

    ``fetch(name, overrides=...)`` resolves another experiment's rows
    through the same cache, metrics registry, worker budget, and fault
    plan — the dependency mechanism that lets several figures share one
    steady-state run.  A dependency always runs at this cell's seed.

    ``checkpoint_every``/``checkpoint_dir`` are the mid-cell durability
    knobs: producers of long runs splat :attr:`checkpointing` into the
    underlying front door (``run_fleet``, ``run_workload``) so a killed
    cell resumes from its last good checkpoint instead of recomputing;
    neither knob is part of the cache key because checkpointing cannot
    change results (bit-identity contract).
    """

    spec_name: str
    params: Mapping[str, Any]
    seed: int
    workers: int | None = None
    fault_plan: Any = None
    fetch: Callable[..., list] | None = None
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None

    @property
    def checkpointing(self) -> dict:
        """The checkpoint keywords every front door takes.  Resuming is
        always safe: with no checkpoint on disk the run starts fresh,
        a good one only skips work the killed cell already finished,
        and another run's checkpoint is refused."""
        return {"checkpoint_every": self.checkpoint_every,
                "checkpoint_dir": self.checkpoint_dir,
                "resume": self.checkpoint_dir is not None}
