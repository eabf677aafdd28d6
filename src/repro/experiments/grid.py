"""The one grid engine behind scenario matrices.

An :class:`Axis` is a named dimension whose :class:`AxisValue` entries
each carry an id (the cell-id fragment) and the config overrides that
picking the value implies.  :func:`expand_axes` takes the cross product
of several axes and yields :class:`Cell` records with deterministic ids
(``d-rc-50`` style: the value ids joined in sorted-axis-name order, so
reordering axis *declarations* never changes a cell's identity).

``repro.scenarios`` compiles JSON scenario matrices onto these cells
for the one runner (``repro.scenarios.run_scenario``); a cell's config
is the spec's defaults under the cell's overrides, so a matrix cell and
an ``experiment run`` of the same config hit the identical
content-addressed cache entry.

Everything here is pure data: axis values are restricted to JSON
scalars and normalised through canonical JSON, so two spellings of the
same value (``1`` via JSON, ``1`` via Python) can never produce
different cell ids or cache keys.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ConfigurationError

__all__ = [
    "Axis",
    "AxisValue",
    "Cell",
    "expand_axes",
    "value_id",
]

#: Axis and cell-prefix names: kebab-ish, underscores allowed so grid
#: parameter names (``n_servers``) are valid axis names verbatim.
_AXIS_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")

#: Value ids additionally allow ``.`` so float-derived ids stay readable.
_VALUE_ID_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")

#: Axis option values must be flat JSON scalars (they become config
#: overrides, which must hash stably into cache keys).
_SCALARS = (str, int, float, bool, type(None))


def value_id(value: Any) -> str:
    """A deterministic id fragment for a JSON-scalar axis value.

    Distinct scalars map to distinct spellings (``1`` -> ``"1"``,
    ``1.0`` -> ``"1.0"``, ``True`` -> ``"true"``, ``None`` -> ``"null"``)
    so auto-derived ids never alias across JSON types; any remaining
    collision inside one axis is rejected loudly by :class:`Axis`.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        text = repr(value) if isinstance(value, float) else str(value)
        return ("neg" + text[1:]) if text.startswith("-") else text
    text = re.sub(r"[^a-z0-9._]+", "-", str(value).lower()).strip("-.")
    return text or "v"


@dataclass(frozen=True)
class AxisValue:
    """One named point on an axis: an id plus the overrides it implies.

    ``plan`` optionally names a fault plan (``repro.faults.NAMED_PLANS``)
    so chaos-vs-clean comparisons can be a first-class axis; at most one
    axis of a matrix may carry plans.
    """

    id: str
    options: Mapping[str, Any] = field(default_factory=dict)
    plan: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not _VALUE_ID_RE.match(self.id):
            raise ConfigurationError(
                f"axis value id {self.id!r} must be lowercase "
                "[a-z0-9._-], starting alphanumeric")
        normalised = {}
        for key in sorted(self.options):
            value = self.options[key]
            if not isinstance(key, str) or not key:
                raise ConfigurationError(
                    f"axis value {self.id!r}: option keys must be "
                    f"non-empty strings, got {key!r}")
            if not isinstance(value, _SCALARS):
                raise ConfigurationError(
                    f"axis value {self.id!r}: option {key}={value!r} is "
                    "not a JSON scalar (values key caches; they must "
                    "hash stably)")
            normalised[key] = value
        # Canonical ordering (sorted keys) so two declarations of the
        # same options are the same value object, byte for byte, in
        # every snapshot and manifest.
        object.__setattr__(self, "options", normalised)
        if self.plan is not None and (not isinstance(self.plan, str)
                                      or not self.plan):
            raise ConfigurationError(
                f"axis value {self.id!r}: plan must be a non-empty "
                f"fault-plan name, got {self.plan!r}")

    def snapshot(self) -> dict:
        """Manifest-ready dict form (plain JSON types only)."""
        snap: dict = {"id": self.id, "options": dict(self.options)}
        if self.plan is not None:
            snap["plan"] = self.plan
        return snap


@dataclass(frozen=True)
class Axis:
    """A named matrix dimension: an ordered tuple of values."""

    name: str
    values: tuple[AxisValue, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _AXIS_NAME_RE.match(
                self.name):
            raise ConfigurationError(
                f"axis name {self.name!r} must be lowercase "
                "[a-z0-9_-], starting alphanumeric")
        values = tuple(self.values)
        if not values:
            raise ConfigurationError(f"axis {self.name!r} has no values")
        seen: set[str] = set()
        for value in values:
            if not isinstance(value, AxisValue):
                raise ConfigurationError(
                    f"axis {self.name!r}: values must be AxisValue, "
                    f"got {type(value).__name__}")
            if value.id in seen:
                raise ConfigurationError(
                    f"axis {self.name!r}: duplicate value id "
                    f"{value.id!r} (two values would alias one cell)")
            seen.add(value.id)
        object.__setattr__(self, "values", values)

    def value(self, value_id_: str) -> AxisValue:
        """The value named *value_id_*; unknown ids list what exists."""
        for value in self.values:
            if value.id == value_id_:
                return value
        raise ConfigurationError(
            f"axis {self.name!r} has no value {value_id_!r}; known: "
            + ", ".join(v.id for v in self.values))

    def snapshot(self) -> dict:
        return {"name": self.name,
                "values": [v.snapshot() for v in self.values]}


@dataclass(frozen=True)
class Cell:
    """One point of the expanded cross product.

    ``coords`` maps axis name -> value id in sorted-axis order, which is
    also the order the ``id`` joins the fragments — the documented
    stability contract: reordering axis declarations changes neither the
    cell set nor any cell id.
    """

    id: str
    coords: tuple[tuple[str, str], ...]
    overrides: Mapping[str, Any]
    plan: str | None = None
    replica: int = 0

    def snapshot(self) -> dict:
        snap: dict = {"id": self.id, "coords": dict(self.coords),
                      "overrides": dict(self.overrides),
                      "replica": self.replica}
        if self.plan is not None:
            snap["plan"] = self.plan
        return snap


def expand_axes(axes: tuple[Axis, ...], *, replicas: int = 1,
                prefix: str = "") -> tuple[Cell, ...]:
    """The cross product of *axes* as deterministic :class:`Cell`\\ s.

    Axes are processed in sorted-name order regardless of declaration
    order; within an axis, value order is as declared.  ``replicas > 1``
    clones every combination with an ``-rN`` id suffix and a distinct
    ``replica`` index (the runner offsets the seed per replica).  Two
    axes overriding the same option key — or two axes both carrying
    fault plans — are rejected, so merge order can never matter.
    """
    if replicas < 1:
        raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
    if prefix and not _AXIS_NAME_RE.match(prefix):
        raise ConfigurationError(
            f"cell-id prefix {prefix!r} must be lowercase [a-z0-9_-]")
    ordered = sorted(axes, key=lambda a: a.name)
    seen_axes: set[str] = set()
    owner: dict[str, str] = {}
    plan_axis: str | None = None
    for axis in ordered:
        if axis.name in seen_axes:
            raise ConfigurationError(f"duplicate axis {axis.name!r}")
        seen_axes.add(axis.name)
        for value in axis.values:
            for key in value.options:
                prior = owner.setdefault(key, axis.name)
                if prior != axis.name:
                    raise ConfigurationError(
                        f"axes {prior!r} and {axis.name!r} both override "
                        f"option {key!r}; one option key belongs to one "
                        "axis")
            if value.plan is not None:
                if plan_axis is not None and plan_axis != axis.name:
                    raise ConfigurationError(
                        f"axes {plan_axis!r} and {axis.name!r} both carry "
                        "fault plans; only one axis may")
                plan_axis = axis.name

    cells: list[Cell] = []
    for combo in itertools.product(*(axis.values for axis in ordered)):
        overrides: dict = {}
        plan: str | None = None
        for value in combo:
            overrides.update(value.options)
            if value.plan is not None:
                plan = value.plan
        fragments = ([prefix] if prefix else []) + [v.id for v in combo]
        base_id = "-".join(fragments) or "all"
        coords = tuple((axis.name, value.id)
                       for axis, value in zip(ordered, combo))
        for replica in range(replicas):
            cell_id = base_id + (f"-r{replica}" if replicas > 1 else "")
            cells.append(Cell(id=cell_id, coords=coords,
                              overrides=dict(overrides), plan=plan,
                              replica=replica))
    return tuple(cells)
