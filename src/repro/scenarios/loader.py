"""Scenario matrices from JSON text to :class:`Scenario` objects.

The text form is the elba-style matrix file (see EXPERIMENTS.md)::

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
parameter named after the axis (id derived via
:func:`~repro.experiments.value_id`), and a mapping gives the value an
explicit ``id`` plus any ``value`` / ``options`` / ``plan`` it implies.
Unknown keys anywhere are rejected with the source file named, so a
typo'd matrix fails at load, not mid-sweep.

Files are read by the stdlib ``json`` module, tightened twice: a
duplicate key and a ``NaN``/``Infinity`` literal — both of which bare
``json.load`` accepts — are errors.  Every way a file can fail to
read (missing, a directory, not UTF-8, not JSON) is a
:class:`~repro.errors.ConfigurationError` naming the path.

The bundled library (``repro scenario list``) lives next to this
module in ``library/*.json``; each file's stem is its scenario name,
a contract the deep linter's DL103 pass enforces.
"""

from __future__ import annotations

import json
import os

from ..errors import ConfigurationError
from ..experiments.grid import Axis, AxisValue, value_id
from .model import Scenario, Smoke

__all__ = [
    "get_scenario",
    "library_dir",
    "list_scenarios",
    "load_matrix",
    "scenario_from_dict",
]


def _require_mapping(doc, what: str, source: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"{source}: {what} must be a mapping, got "
            f"{type(doc).__name__}")
    return doc


def _reject_unknown(doc: dict, known: tuple[str, ...], what: str,
                    source: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown {what} key(s) "
            + ", ".join(repr(k) for k in unknown)
            + "; known: " + ", ".join(known))


def _parse_axis_value(axis_name: str, raw, source: str) -> AxisValue:
    if not isinstance(raw, dict):
        # Bare scalar: the value of the parameter the axis is named for.
        return AxisValue(id=value_id(raw), options={axis_name: raw})
    _reject_unknown(raw, ("id", "value", "options", "plan"),
                    f"axis {axis_name!r} value", source)
    options = dict(_require_mapping(raw.get("options") or {}, "options",
                                    source))
    if "value" in raw:
        options.setdefault(axis_name, raw["value"])
    id_ = raw.get("id")
    if id_ is None:
        if "value" not in raw:
            raise ConfigurationError(
                f"{source}: axis {axis_name!r} mapping value needs an "
                "'id' (or a 'value' to derive one from)")
        id_ = value_id(raw["value"])
    return AxisValue(id=id_, options=options, plan=raw.get("plan"))


def _parse_axes(raw, source: str) -> tuple[Axis, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigurationError(
            f"{source}: axes must be a list of mappings, got "
            f"{type(raw).__name__}")
    axes = []
    for entry in raw:
        entry = _require_mapping(entry, "axis", source)
        _reject_unknown(entry, ("name", "values"), "axis", source)
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"{source}: every axis needs a non-empty 'name'")
        values = entry.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                f"{source}: axis {name!r} needs a non-empty 'values' "
                "list")
        axes.append(Axis(name, tuple(
            _parse_axis_value(name, v, source) for v in values)))
    return tuple(axes)


def _parse_smoke(raw, source: str) -> Smoke | None:
    if raw is None:
        return None
    raw = _require_mapping(raw, "smoke", source)
    _reject_unknown(raw, ("options", "axes", "replicas"), "smoke", source)
    return Smoke(
        options=_require_mapping(raw.get("options") or {},
                                 "smoke options", source),
        axes=_parse_axes(raw.get("axes"), source),
        replicas=raw.get("replicas"))


_TOP_KEYS = ("name", "description", "why", "experiment", "options",
             "axes", "replicas", "plan", "seed", "prefix", "smoke")


def scenario_from_dict(doc, source: str = "<matrix>") -> Scenario:
    """Build a validated :class:`Scenario` from one parsed matrix."""
    doc = _require_mapping(doc, "a scenario matrix", source)
    _reject_unknown(doc, _TOP_KEYS, "scenario", source)
    for required in ("name", "description", "experiment"):
        if required not in doc:
            raise ConfigurationError(
                f"{source}: scenario is missing required key "
                f"{required!r}")
    # Free-text rationale (the file's header comment): checked so a
    # typo'd shape fails here, then dropped — it reaches no snapshot.
    why = doc.get("why", [])
    if not isinstance(why, list) or not all(
            isinstance(line, str) for line in why):
        raise ConfigurationError(
            f"{source}: 'why' must be a list of strings, got {why!r}")
    return Scenario(
        name=doc["name"],
        description=doc["description"],
        experiment=doc["experiment"],
        options=_require_mapping(doc.get("options") or {}, "options",
                                 source),
        axes=_parse_axes(doc.get("axes"), source),
        replicas=doc.get("replicas", 1),
        plan=doc.get("plan"),
        seed=doc.get("seed"),
        prefix=doc.get("prefix", ""),
        smoke=_parse_smoke(doc.get("smoke"), source),
        source=source)


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook``: bare ``json`` keeps the last duplicate."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _reject_constant(literal: str):
    """``parse_constant``: bare ``json`` reads these as floats."""
    raise ValueError(f"non-finite number {literal} is not JSON")


def load_matrix(path: str) -> Scenario:
    """Parse and validate the matrix file at *path*."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys,
                            parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # Most likely a YAML matrix from before the format changed:
        # say what is expected, not just where the parser gave up.
        raise ConfigurationError(
            f"{path}: {exc}; scenario matrices are JSON (docs/API.md, "
            "\"Scenario matrices\", has the one-line conversion for an "
            "older YAML matrix)") from None
    except ValueError as exc:  # raised by the two hooks above
        raise ConfigurationError(f"{path}: {exc}") from None
    except RecursionError:
        raise ConfigurationError(f"{path}: JSON nested too deeply") from None
    return scenario_from_dict(doc, source=path)


def library_dir() -> str:
    """The bundled scenario library's directory."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "library")


def _library_stems() -> list[str]:
    """File stems of the library's ``*.json`` entries, sorted."""
    return sorted(stem for stem, ext in map(os.path.splitext,
                                            os.listdir(library_dir()))
                  if ext == ".json")


def list_scenarios() -> list[Scenario]:
    """Every bundled library scenario, name-sorted.

    The library is small and each file is pure data, so parsing all of
    them on demand beats caching (tests monkeypatch the directory)."""
    scenarios = []
    for stem in _library_stems():
        path = os.path.join(library_dir(), f"{stem}.json")
        scenario = load_matrix(path)
        if scenario.name != stem:
            raise ConfigurationError(
                f"{path}: scenario name {scenario.name!r} must match "
                f"the file stem {stem!r}")
        scenarios.append(scenario)
    return scenarios


def get_scenario(name: str) -> Scenario:
    """The bundled scenario called *name*; unknown names list what
    exists (same contract as ``repro.experiments.get_spec``)."""
    path = os.path.join(library_dir(), f"{name}.json")
    if os.path.isfile(path):
        scenario = load_matrix(path)
        if scenario.name == name:
            return scenario
    raise ConfigurationError(
        f"unknown scenario {name!r}; bundled: "
        + (", ".join(_library_stems()) or "(none)"))
