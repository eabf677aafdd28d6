"""The scenario front door: ``ScenarioConfig -> run_scenario``.

The fourth frozen-config entry point, mirroring ``FleetConfig ->
run_fleet``, ``WorkloadConfig -> run_workload``, and ``LoadgenConfig ->
run_loadgen``: a validated frozen config in, a result object with a
deterministic snapshot/manifest out.

``run_scenario`` compiles the named (or inline) scenario matrix to its
cells and drives every cell through
:func:`repro.experiments.run_experiment` — the cells land in the same
content-addressed cache as ``repro experiment run`` cells, so a rerun
of a finished scenario is pure cache hits (checkpoint/resume of
interrupted cells rides the experiment layer unchanged), and the rows
are byte-identical at any worker count.

Telemetry: ``scenario.compile`` / ``scenario.cell.start`` /
``scenario.cell.cached`` / ``scenario.report`` tracepoints and the
``scenario.cells_total`` / ``scenario.cells_cached`` /
``scenario.cells_computed`` counters (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from ..errors import ConfigurationError
from ..experiments import get_spec, load_cached, run_experiment
from ..experiments.cache import ResultCache
from ..experiments.runner import ExperimentResult
from ..telemetry import MetricsRegistry, tracepoint
from ..telemetry.lazymanifest import LazyManifest
from .loader import get_scenario
from .model import Cell, Scenario, ScenarioMatrix

__all__ = ["ScenarioConfig", "ScenarioResult", "load_scenario",
           "run_scenario"]

_tp_compile = tracepoint("scenario.compile")
_tp_cell_start = tracepoint("scenario.cell.start")
_tp_cell_cached = tracepoint("scenario.cell.cached")
_tp_report = tracepoint("scenario.report")


class _ScenarioConfigFields(NamedTuple):
    scenario: Any
    smoke: bool = False
    seed: int | None = None
    workers: int | None = None
    cells: tuple[str, ...] = ()
    select: Mapping[str, str] = {}
    force: bool = False
    checkpoint_every: int = 0


class ScenarioConfig(_ScenarioConfigFields):
    """One validated scenario invocation.

    Attributes:
        scenario: a bundled scenario name (``repro scenario list``) or
            a checked :class:`~repro.scenarios.Scenario` (from
            ``load_matrix`` on a user file or ``scenario_from_dict``).
        smoke: run the scenario's CI-sized smoke variant.
        seed: base seed override (default: the scenario's seed, else
            the experiment spec's); replicas offset it per clone.
        workers: fleet worker budget handed down to producers; never
            part of any cache key (bit-identity contract).
        cells: run only these cell ids (matrix order preserved).
        select: pin axes to value ids (``{"design": "nc"}``) — the
            ``--set axis=value`` CLI filter; composes with ``cells``.
        force: recompute and overwrite cached cells.
        checkpoint_every: mid-cell checkpoint cadence forwarded to
            ``run_experiment`` (0 disables).
    """

    __slots__ = ()

    def __new__(cls, *fields, **named) -> ScenarioConfig:
        self = super().__new__(cls, *fields, **named)
        if not isinstance(self.scenario, (str, Scenario)):
            raise ConfigurationError(
                "scenario must be a bundled scenario name or a Scenario, "
                f"got {type(self.scenario).__name__}")
        if isinstance(self.scenario, str) and not self.scenario:
            raise ConfigurationError("scenario name must be non-empty")
        cells = tuple(self.cells)
        for cell_id in cells:
            if not isinstance(cell_id, str) or not cell_id:
                raise ConfigurationError(
                    f"cell ids must be non-empty strings, got {cell_id!r}")
        select = {}
        for axis, value in dict(self.select).items():
            if not isinstance(axis, str) or not isinstance(value, str):
                raise ConfigurationError(
                    f"select entries must map axis name to value id, "
                    f"got {axis!r}={value!r}")
            select[axis] = value
        self = self._replace(cells=cells, select=select)
        # By type, not value: ``True`` is an ``int`` and ``"no"`` is
        # truthy to Python, and either would run as something else.
        if self.seed is not None and type(self.seed) is not int:
            raise ConfigurationError(
                f"seed must be an integer, got {self.seed!r}")
        if self.workers is not None and (type(self.workers) is not int
                                         or self.workers < 1):
            raise ConfigurationError(
                f"workers must be an integer >= 1, got {self.workers!r}")
        if type(self.checkpoint_every) is not int or \
                self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be an integer >= 0, got "
                f"{self.checkpoint_every!r}")
        for name in ("smoke", "force"):
            if type(getattr(self, name)) is not bool:
                raise ConfigurationError(
                    f"{name} must be a boolean, got "
                    f"{getattr(self, name)!r}")
        return self


class ScenarioResult(LazyManifest):
    """A compiled matrix plus each selected cell's experiment result,
    and the scenario manifest, built on first read of :attr:`manifest`."""

    __slots__ = ("matrix", "seed", "cells", "results")

    def __init__(self, matrix: ScenarioMatrix, seed: int,
                 cells: tuple[Cell, ...],
                 results: list[ExperimentResult]) -> None:
        self.matrix, self.seed = matrix, seed
        self.cells, self.results = cells, results

    __eq__ = ExperimentResult.__eq__

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    def report(self) -> str:
        """The markdown comparison grid (pure function of the rows)."""
        from .report import render_markdown

        if _tp_report.enabled:
            _tp_report.emit(scenario=self.matrix.scenario,
                            cells=len(self.cells), format="markdown")
        return render_markdown(self)

    def report_html(self) -> str:
        """The same grid as a standalone HTML document."""
        from .htmlreport import render_html

        if _tp_report.enabled:
            _tp_report.emit(scenario=self.matrix.scenario,
                            cells=len(self.cells), format="html")
        return render_html(self)


def _resolve(config: ScenarioConfig):
    """(matrix, selected cells, base seed) for one config."""
    scenario = (get_scenario(config.scenario)
                if isinstance(config.scenario, str) else config.scenario)
    matrix = scenario.matrix(smoke=config.smoke)
    cells = matrix.compile()
    if _tp_compile.enabled:
        _tp_compile.emit(scenario=matrix.scenario, cells=len(cells),
                         smoke=int(matrix.smoke))

    axes = {axis["name"]: [value["id"] for value in axis["values"]]
            for axis in matrix.axes}
    for axis_name, wanted in sorted(config.select.items()):
        if axis_name not in axes:
            raise ConfigurationError(
                f"scenario {matrix.scenario!r} has no axis {axis_name!r}; "
                "known: " + (", ".join(sorted(axes)) or "(none)"))
        if wanted not in axes[axis_name]:
            raise ConfigurationError(
                f"axis {axis_name!r} has no value {wanted!r}; known: "
                + ", ".join(axes[axis_name]))
        cells = tuple(cell for cell in cells
                      if dict(cell.coords)[axis_name] == wanted)
    if config.cells:
        known = {cell.id for cell in cells}
        missing = sorted(set(config.cells) - known)
        if missing:
            raise ConfigurationError(
                f"scenario {matrix.scenario!r} has no cell(s) "
                + ", ".join(repr(c) for c in missing)
                + "; known: " + ", ".join(cell.id for cell in cells))
        cells = tuple(cell for cell in cells if cell.id in config.cells)
    if not cells:
        raise ConfigurationError(
            f"scenario {matrix.scenario!r}: selection matches no cells")

    seed = config.seed
    if seed is None:
        seed = matrix.seed
    if seed is None:
        seed = get_spec(matrix.experiment).seed
    return matrix, cells, seed


def _cell_args(matrix: ScenarioMatrix, cell: Cell, seed: int) -> dict:
    """What one cell hands ``run_experiment`` or ``load_cached``."""
    plan = matrix.cell_plan(cell)
    if plan is not None:
        from ..faults.plan import NAMED_PLANS    # only a plan needs them

        plan = NAMED_PLANS[plan]
    return {"overrides": matrix.cell_overrides(cell),
            "seed": seed + cell.replica, "plan": plan}


def run_scenario(config: ScenarioConfig,
                 cache: ResultCache | None = None) -> ScenarioResult:
    """Run (or serve from cache) every selected cell of a scenario.

    Each cell is one ``run_experiment`` call: atomically cached on
    completion, so interrupting a scenario anywhere and rerunning it
    recomputes only unfinished cells, and a second run of a finished
    scenario is all cache hits with byte-identical rows.
    """
    matrix, cells, seed = _resolve(config)
    if cache is None:
        cache = ResultCache()
    metrics = MetricsRegistry()

    results: list[ExperimentResult] = []
    for cell in cells:
        metrics.inc("scenario.cells_total")
        if _tp_cell_start.enabled:
            _tp_cell_start.emit(scenario=matrix.scenario, cell=cell.id)
        result = run_experiment(
            matrix.experiment, **_cell_args(matrix, cell, seed),
            workers=config.workers,
            cache=cache,
            force=config.force,
            metrics=metrics,
            checkpoint_every=config.checkpoint_every)
        if result.cached:
            metrics.inc("scenario.cells_cached")
            if _tp_cell_cached.enabled:
                _tp_cell_cached.emit(scenario=matrix.scenario,
                                     cell=cell.id)
        else:
            metrics.inc("scenario.cells_computed")
        results.append(result)

    scenario_result = ScenarioResult(matrix=matrix, seed=seed,
                                     cells=cells, results=results)
    n_cached = scenario_result.n_cached
    scenario_result.manifest_parts = {
        "kind": "scenario",
        "config": {**matrix.snapshot(),
                   "cells": [cell.id for cell in cells]},
        "seed": seed,
        "counters": metrics.counters.snapshot(),
        "aggregates": {"cells_total": len(results),
                       "cells_cached": n_cached,
                       "cells_computed": len(results) - n_cached},
        "volatile": {"cache_dir": cache.root, "workers": config.workers}}
    return scenario_result


def load_scenario(config: ScenarioConfig,
                  cache: ResultCache | None = None) -> ScenarioResult:
    """Every selected cell from cache, computing nothing — the
    ``repro scenario report`` path.  Raises naming the missing cell ids
    when any cell has not landed yet."""
    matrix, cells, seed = _resolve(config)
    if cache is None:
        cache = ResultCache()
    results: list[ExperimentResult] = []
    missing: list[str] = []
    for cell in cells:
        result = load_cached(matrix.experiment,
                             **_cell_args(matrix, cell, seed), cache=cache)
        if result is None:
            missing.append(cell.id)
        else:
            results.append(result)
    if missing:
        raise ConfigurationError(
            f"scenario {matrix.scenario!r}: no cached rows for cell(s) "
            + ", ".join(missing)
            + f"; run `repro scenario run {matrix.scenario}` first")
    return ScenarioResult(matrix=matrix, seed=seed, cells=cells,
                          results=results)
