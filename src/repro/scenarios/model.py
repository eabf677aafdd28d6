"""Frozen scenario-matrix model compiled onto the shared grid engine.

A :class:`Scenario` names a base experiment spec and declares axes of
named values over it — the :class:`~repro.experiments.Axis` /
:class:`~repro.experiments.Cell` engine a spec's own ``axes`` are
declared in, so a scenario cell and an ``experiment run`` with the same
resolved config hit the identical content-addressed cache entry.  On top of the
raw cross product a scenario adds:

* scenario-wide ``options`` (applied under every cell's overrides);
* an optional fault ``plan`` (validated against
  ``repro.faults.NAMED_PLANS``), overridable per axis value so
  chaos-vs-clean is a first-class axis;
* ``replicas`` — seed-offset clones of every cell for soak runs;
* a ``smoke`` variant — replacement axes/options sized for CI.

Everything is a frozen dataclass validated eagerly at construction;
:meth:`Scenario.matrix` then freezes one concrete (smoke or full)
:class:`ScenarioMatrix` whose :meth:`~ScenarioMatrix.compile` resolves
every cell against the experiment spec, so a typo'd option name fails
before any simulation starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ConfigurationError
from ..experiments.grid import (
    Axis,
    AxisValue,
    Cell,
    expand_axes,
    value_id,
)
from ..faults.plan import NAMED_PLANS

__all__ = [
    "Axis",
    "AxisValue",
    "Cell",
    "Scenario",
    "ScenarioMatrix",
    "Smoke",
    "expand_axes",
    "value_id",
]

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

_SCALARS = (str, int, float, bool, type(None))


def _check_options(owner: str, options: Mapping[str, Any]) -> dict:
    normalised = {}
    for key in sorted(options):
        value = options[key]
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                f"{owner}: option keys must be non-empty strings, "
                f"got {key!r}")
        if not isinstance(value, _SCALARS):
            raise ConfigurationError(
                f"{owner}: option {key}={value!r} is not a JSON scalar")
        normalised[key] = value
    return normalised


def _check_plan(owner: str, plan: str | None) -> None:
    if plan is not None and (type(plan) is not str
                             or plan not in NAMED_PLANS):
        raise ConfigurationError(
            f"{owner}: unknown fault plan {plan!r}; known: "
            + ", ".join(sorted(NAMED_PLANS)))


def _check_replicas(owner: str, replicas) -> None:
    if type(replicas) is not int or replicas < 1:
        raise ConfigurationError(
            f"{owner}: replicas must be an integer >= 1, got {replicas!r}")


def _check_axes(owner: str, axes) -> tuple[Axis, ...]:
    for axis in axes:
        if not isinstance(axis, Axis):
            raise ConfigurationError(
                f"{owner}: axes must be Axis instances, got "
                f"{type(axis).__name__}")
        for value in axis.values:
            _check_plan(f"{owner}: axis {axis.name!r} value "
                        f"{value.id!r}", value.plan)
    return tuple(axes)


@dataclass(frozen=True)
class Smoke:
    """The CI-sized variant of a scenario.

    ``options`` merge over the scenario's options; each axis here
    *replaces* the same-named scenario axis (a smoke axis naming no
    scenario axis is rejected — smoke shrinks the matrix, it never
    grows it); ``replicas`` overrides the scenario's when set.
    """

    options: Mapping[str, Any] = field(default_factory=dict)
    axes: tuple[Axis, ...] = ()
    replicas: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "options", _check_options("smoke", self.options))
        object.__setattr__(self, "axes", _check_axes("smoke", self.axes))
        if self.replicas is not None:
            _check_replicas("smoke", self.replicas)


@dataclass(frozen=True)
class Scenario:
    """One declaratively-named scenario (see module docstring)."""

    name: str
    description: str
    experiment: str
    options: Mapping[str, Any] = field(default_factory=dict)
    axes: tuple[Axis, ...] = ()
    replicas: int = 1
    plan: str | None = None
    seed: int | None = None
    prefix: str = ""
    smoke: Smoke | None = None
    source: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ConfigurationError(
                f"scenario name {self.name!r} must be kebab-case "
                "([a-z0-9-], starting alphanumeric)")
        where = f"scenario {self.name!r}"
        if not isinstance(self.experiment, str) or not self.experiment:
            raise ConfigurationError(
                f"{where}: experiment must name a registered spec")
        if not isinstance(self.description, str) or not self.description:
            raise ConfigurationError(
                f"{where}: description must be a non-empty string")
        object.__setattr__(
            self, "options", _check_options(where, self.options))
        object.__setattr__(self, "axes", _check_axes(where, self.axes))
        _check_replicas(where, self.replicas)
        _check_plan(where, self.plan)
        if type(self.prefix) is not str:
            raise ConfigurationError(
                f"{where}: prefix must be a string, got {self.prefix!r}")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ConfigurationError(
                f"{where}: seed must be an integer, got {self.seed!r}")
        if self.smoke is not None and not isinstance(self.smoke, Smoke):
            raise ConfigurationError(
                f"{where}: smoke must be a Smoke, got "
                f"{type(self.smoke).__name__}")
        if self.smoke is not None:
            known = {axis.name for axis in self.axes}
            for axis in self.smoke.axes:
                if axis.name not in known:
                    raise ConfigurationError(
                        f"{where}: smoke axis {axis.name!r} replaces no "
                        f"scenario axis; known: "
                        + (", ".join(sorted(known)) or "(none)"))
        # Fail fast on duplicate axes, option-key collisions across
        # axes, bad prefixes — for the full and the smoke matrix both.
        self.matrix(smoke=False).cells()
        if self.smoke is not None:
            self.matrix(smoke=True).cells()

    def matrix(self, smoke: bool = False) -> ScenarioMatrix:
        """The concrete (full or smoke) matrix this scenario declares."""
        if smoke and self.smoke is None:
            raise ConfigurationError(
                f"scenario {self.name!r} declares no smoke variant")
        options = dict(self.options)
        axes = self.axes
        replicas = self.replicas
        if smoke:
            options.update(self.smoke.options)
            replacement = {axis.name: axis for axis in self.smoke.axes}
            axes = tuple(replacement.get(axis.name, axis)
                         for axis in self.axes)
            if self.smoke.replicas is not None:
                replicas = self.smoke.replicas
        return ScenarioMatrix(
            scenario=self.name, description=self.description,
            experiment=self.experiment, options=options, axes=axes,
            replicas=replicas, plan=self.plan, seed=self.seed,
            prefix=self.prefix, smoke=smoke)


@dataclass(frozen=True)
class ScenarioMatrix:
    """One concrete matrix: a scenario with its smoke choice applied."""

    scenario: str
    description: str
    experiment: str
    options: Mapping[str, Any]
    axes: tuple[Axis, ...]
    replicas: int
    plan: str | None
    seed: int | None
    prefix: str
    smoke: bool

    def cells(self) -> tuple[Cell, ...]:
        """The expanded cross product, deterministic ids included."""
        return expand_axes(self.axes, replicas=self.replicas,
                           prefix=self.prefix)

    def cell_overrides(self, cell: Cell) -> dict:
        """The full override dict one cell hands ``run_experiment``:
        scenario options under the cell's own axis overrides."""
        return {**self.options, **cell.overrides}

    def cell_plan(self, cell: Cell) -> str | None:
        """The fault plan governing *cell*: its axis-value plan when one
        axis carries plans, else the scenario-wide plan."""
        return cell.plan if cell.plan is not None else self.plan

    def compile(self) -> tuple[Cell, ...]:
        """The cells, with every cell's config resolved against the
        experiment spec — unknown options and bad values fail here,
        before any cell runs."""
        from ..experiments import get_spec

        spec = get_spec(self.experiment)
        cells = self.cells()
        for cell in cells:
            try:
                spec.resolve(self.cell_overrides(cell))
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"scenario {self.scenario!r} cell {cell.id!r}: "
                    f"{exc}") from None
        return cells

    def snapshot(self) -> dict:
        """Manifest-ready dict form (plain JSON types only)."""
        return {
            "scenario": self.scenario,
            "experiment": self.experiment,
            "smoke": self.smoke,
            "options": dict(self.options),
            "axes": [axis.snapshot() for axis in self.axes],
            "replicas": self.replicas,
            "plan": self.plan,
            "seed": self.seed,
            "prefix": self.prefix,
        }
