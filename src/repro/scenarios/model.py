"""The one matrix model: a scenario document checked once, then cells.

A scenario names a base experiment spec and declares axes of named
values over it.  :func:`scenario_from_dict` is the only way in — a
matrix file (``load_matrix``), a dict built in code and the replicas
scenario ``verify_claims`` builds all pass through it, so each check
lives here once and every refusal names its source::

    {
      "name": "uce-degrade",
      "description": "clean fleet vs one with uncorrectable memory errors",
      "why": ["free-text rationale; validated, otherwise ignored"],
      "experiment": "fleet-survey",
      "options": {"mem_mib": 256},
      "axes": [
        {"name": "faults",
         "values": [{"id": "clean"}, {"id": "uce", "plan": "uce"}]}
      ],
      "smoke": {"options": {"mem_mib": 64}}
    }

Axis values come in two spellings: a bare scalar (``24``) sets the
parameter named after the axis, and a mapping gives the value an
explicit ``id`` plus any ``value`` / ``options`` / ``plan`` it implies.
Checked axes stay plain data, in the form :meth:`ScenarioMatrix.snapshot`
prints.  On top of the raw cross product a scenario adds scenario-wide
``options`` (under every cell's overrides), a fault ``plan`` (one axis
may override it per value, so chaos-vs-clean is a first-class axis),
``replicas`` (seed-offset clones of every cell) and a ``smoke`` block:
options merged over the scenario's, axes replacing same-named ones and
a replica count, all sized for CI.

A checked :class:`Scenario` holds one :class:`ScenarioMatrix` per
variant; only the variant that runs expands its cells, once, in
:meth:`ScenarioMatrix.compile`.  Cell ids join the value ids in
sorted-axis-name order, so reordering axis declarations never changes a
cell's identity, and a cell's config is the spec's defaults under its
overrides, so a scenario cell and an ``experiment run`` of the same
config hit one content-addressed cache entry.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Mapping, NamedTuple

from ..errors import ConfigurationError

__all__ = ["Cell", "Scenario", "ScenarioMatrix", "scenario_from_dict"]

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

#: Axis names and the cell-id prefix: underscores allowed so parameter
#: names (``n_servers``) are valid axis names verbatim.
_AXIS_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")

#: Value ids additionally allow ``.`` so float-derived ids stay readable.
_VALUE_ID_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")

#: Option values become config overrides, which key caches: flat JSON
#: scalars only, so they hash stably.
_SCALARS = (str, int, float, bool, type(None))

_TOP_KEYS = ("name", "description", "why", "experiment", "options",
             "axes", "replicas", "plan", "seed", "prefix", "smoke")


def _value_id(value: Any) -> str:
    """The id a bare axis value gets: distinct scalars map to distinct
    spellings (``1`` -> ``"1"``, ``1.0`` -> ``"1.0"``, ``True`` ->
    ``"true"``, ``None`` -> ``"null"``, ``-4`` -> ``"neg4"``)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return re.sub(r"^-", "neg", str(value))
    text = re.sub(r"[^a-z0-9._]+", "-", str(value).lower()).strip("-.")
    return text or "v"


def _mapping(raw, what: str, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{where}: {what} must be a mapping, got {type(raw).__name__}")
    return raw


def _known(raw: dict, keys: tuple[str, ...], what: str, where: str) -> None:
    unknown = sorted(set(raw) - set(keys), key=str)
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown {what} key(s) "
            + ", ".join(repr(k) for k in unknown)
            + "; known: " + ", ".join(keys))


def _options(raw: dict, where: str) -> dict:
    """*raw* with its keys sorted, so two spellings of the same options
    are the same value in every snapshot and cache key."""
    for key, value in raw.items():
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                f"{where}: option keys must be non-empty strings, "
                f"got {key!r}")
        if not isinstance(value, _SCALARS):
            raise ConfigurationError(
                f"{where}: option {key}={value!r} is not a JSON scalar "
                "(values key caches; they must hash stably)")
    return dict(sorted(raw.items()))


def _plan(plan, where: str) -> None:
    if plan is None:
        return
    from ..faults.plan import NAMED_PLANS     # only a plan needs them

    if type(plan) is not str or plan not in NAMED_PLANS:
        raise ConfigurationError(
            f"{where}: unknown fault plan {plan!r}; known: "
            + ", ".join(sorted(NAMED_PLANS)))


def _replicas(replicas, where: str) -> int:
    if type(replicas) is not int or replicas < 1:
        raise ConfigurationError(
            f"{where}: replicas must be an integer >= 1, got {replicas!r}")
    return replicas


def _axis_value(axis: str, raw, where: str) -> dict:
    """One value of *axis* as ``{"id", "options"[, "plan"]}``."""
    if not isinstance(raw, dict):
        # Bare scalar: the value of the parameter the axis is named for.
        raw = {"value": raw}
    _known(raw, ("id", "value", "options", "plan"),
           f"axis {axis!r} value", where)
    options = dict(_mapping(raw.get("options", {}), "options", where))
    if "value" in raw:
        if axis in options:
            raise ConfigurationError(
                f"{where}: axis {axis!r} value sets {axis!r} twice, by "
                "'value' and in 'options'")
        options[axis] = raw["value"]
    id_ = raw.get("id")
    if id_ is None:
        if "value" not in raw:
            raise ConfigurationError(
                f"{where}: axis {axis!r} mapping value needs an 'id' (or "
                "a 'value' to derive one from)")
        id_ = _value_id(raw["value"])
    if not isinstance(id_, str) or not _VALUE_ID_RE.match(id_):
        raise ConfigurationError(
            f"{where}: axis value id {id_!r} must be lowercase "
            "[a-z0-9._-], starting alphanumeric")
    value = {"id": id_,
             "options": _options(options, f"{where}: axis value {id_!r}")}
    if raw.get("plan") is not None:
        _plan(raw["plan"], f"{where}: axis {axis!r} value {id_!r}")
        value["plan"] = raw["plan"]
    return value


def _axes(raw, where: str) -> list[dict]:
    """A declared axis list as ``[{"name", "values"}]``, in order."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ConfigurationError(
            f"{where}: axes must be a list of mappings, got "
            f"{type(raw).__name__}")
    axes: dict[str, dict] = {}
    for entry in raw:
        entry = _mapping(entry, "axis", where)
        _known(entry, ("name", "values"), "axis", where)
        name, values = entry.get("name"), entry.get("values")
        if not isinstance(name, str) or not _AXIS_NAME_RE.match(name):
            raise ConfigurationError(
                f"{where}: axis name {name!r} must be lowercase "
                "[a-z0-9_-], starting alphanumeric")
        if name in axes:
            raise ConfigurationError(f"{where}: duplicate axis {name!r}")
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                f"{where}: axis {name!r} needs a non-empty 'values' list")
        parsed: dict[str, dict] = {}
        for value in values:
            value = _axis_value(name, value, where)
            if value["id"] in parsed:
                raise ConfigurationError(
                    f"{where}: axis {name!r}: duplicate value id "
                    f"{value['id']!r} (two values would alias one cell)")
            parsed[value["id"]] = value
        axes[name] = {"name": name, "values": list(parsed.values())}
    return list(axes.values())


def _check_variant(axes: list[dict], where: str) -> list[dict]:
    """What one variant's axes must agree on: an option key and the
    fault plans each belong to one axis, so merge order never matters."""
    owner: dict[str, str] = {}
    plan_axis = None
    for axis in sorted(axes, key=lambda a: a["name"]):
        name = axis["name"]
        for value in axis["values"]:
            for key in value["options"]:
                prior = owner.setdefault(key, name)
                if prior != name:
                    raise ConfigurationError(
                        f"{where}: axes {prior!r} and {name!r} both "
                        f"override option {key!r}; one option key "
                        "belongs to one axis")
            if "plan" in value:
                if plan_axis not in (None, name):
                    raise ConfigurationError(
                        f"{where}: axes {plan_axis!r} and {name!r} both "
                        "carry fault plans; only one axis may")
                plan_axis = name
    return axes


def scenario_from_dict(doc, source: str = "<matrix>") -> Scenario:
    """Check one parsed matrix document and build its :class:`Scenario`;
    every refusal is a :class:`ConfigurationError` starting *source*."""
    doc = _mapping(doc, "a scenario matrix", source)
    _known(doc, _TOP_KEYS, "scenario", source)
    for required in ("name", "description", "experiment"):
        if required not in doc:
            raise ConfigurationError(
                f"{source}: scenario is missing required key {required!r}")
    # Free-text rationale (the file's header comment): checked so a
    # typo'd shape fails here, then dropped — it reaches no snapshot.
    why = doc.get("why", [])
    if not isinstance(why, list) or not all(
            isinstance(line, str) for line in why):
        raise ConfigurationError(
            f"{source}: 'why' must be a list of strings, got {why!r}")
    name = doc["name"]
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ConfigurationError(
            f"{source}: scenario name {name!r} must be kebab-case "
            "([a-z0-9-], starting alphanumeric)")
    where = f"{source}: scenario {name!r}"
    for key in ("experiment", "description"):
        if not isinstance(doc[key], str) or not doc[key]:
            raise ConfigurationError(
                f"{where}: {key} must be a non-empty string")
    prefix, seed = doc.get("prefix", ""), doc.get("seed")
    if type(prefix) is not str or prefix and not _AXIS_NAME_RE.match(
            prefix):
        raise ConfigurationError(
            f"{where}: cell-id prefix {prefix!r} must be a lowercase "
            "[a-z0-9_-] string")
    if seed is not None and type(seed) is not int:
        raise ConfigurationError(
            f"{where}: seed must be an integer, got {seed!r}")
    _plan(doc.get("plan"), where)
    options = _options(_mapping(doc.get("options", {}), "options",
                                source), where)
    axes = _axes(doc.get("axes"), where)
    full = ScenarioMatrix(
        scenario=name, description=doc["description"],
        experiment=doc["experiment"],
        options=options, axes=_check_variant(axes, where),
        replicas=_replicas(doc.get("replicas", 1), where),
        plan=doc.get("plan"), seed=seed, prefix=prefix, smoke=False)
    if doc.get("smoke") is None:
        return Scenario(full)
    smoke = _mapping(doc["smoke"], "smoke", source)
    _known(smoke, ("options", "axes", "replicas"), "smoke", source)
    where += " smoke"
    replacing = {axis["name"]: axis
                 for axis in _axes(smoke.get("axes"), where)}
    known = sorted(axis["name"] for axis in axes)
    stray = sorted(replacing.keys() - set(known))
    if stray:
        raise ConfigurationError(
            f"{where}: axis {stray[0]!r} replaces no scenario axis; "
            "known: " + (", ".join(known) or "(none)"))
    return Scenario(full, full._replace(
        smoke=True,
        options={**options, **_options(_mapping(
            smoke.get("options", {}), "smoke options", source), where)},
        axes=_check_variant([replacing.get(axis["name"], axis)
                             for axis in axes], where),
        replicas=full.replicas if smoke.get("replicas") is None
        else _replicas(smoke["replicas"], where)))


class Cell(NamedTuple):
    """One point of the expanded cross product.

    ``coords`` maps axis name -> value id in sorted-axis order, the
    order the ``id`` joins them in; ``overrides`` and ``plan`` are what
    the cell's own axis values set (:meth:`ScenarioMatrix.cell_overrides`
    and :meth:`~ScenarioMatrix.cell_plan` add the scenario-wide ones).
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


class ScenarioMatrix(NamedTuple):
    """One variant (full or smoke) of a checked scenario; build it with
    :func:`scenario_from_dict`, which checks what :meth:`cells` trusts."""

    scenario: str
    description: str
    experiment: str
    options: Mapping[str, Any]
    axes: list[dict]
    replicas: int
    plan: str | None
    seed: int | None
    prefix: str
    smoke: bool

    def cells(self) -> tuple[Cell, ...]:
        """The cross product, axes in sorted-name order and values in
        declared order; ``replicas > 1`` clones each combination with an
        ``-rN`` id suffix and its own ``replica`` index."""
        ordered = sorted(self.axes, key=lambda axis: axis["name"])
        cells = []
        for combo in itertools.product(*(a["values"] for a in ordered)):
            overrides: dict = {}
            plan = None
            for value in combo:
                overrides.update(value["options"])
                plan = value.get("plan", plan)
            base = "-".join(filter(None, [self.prefix]
                                   + [value["id"] for value in combo]))
            coords = tuple((axis["name"], value["id"])
                           for axis, value in zip(ordered, combo))
            for replica in range(self.replicas):
                suffix = f"-r{replica}" if self.replicas > 1 else ""
                cells.append(Cell(id=(base or "all") + suffix,
                                  coords=coords, overrides=dict(overrides),
                                  plan=plan, replica=replica))
        return tuple(cells)

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
        """Manifest-ready dict form (plain JSON types only): every field
        but the description, copied."""
        snap = {**self._asdict(), "options": dict(self.options), "axes": [
            {**axis, "values": [{**value, "options": dict(value["options"])}
                                for value in axis["values"]]}
            for axis in self.axes]}
        del snap["description"]
        return snap


class Scenario(NamedTuple):
    """A checked scenario: its full matrix and, when the document has a
    ``smoke`` block, the CI-sized variant."""

    full: ScenarioMatrix
    smoke: ScenarioMatrix | None = None

    @property
    def name(self) -> str:
        return self.full.scenario

    def matrix(self, smoke: bool = False) -> ScenarioMatrix:
        """The variant to run: the smoke one when *smoke* is true."""
        if not smoke:
            return self.full
        if self.smoke is None:
            raise ConfigurationError(
                f"scenario {self.name!r} declares no smoke variant")
        return self.smoke
