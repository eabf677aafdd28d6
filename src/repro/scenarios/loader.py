"""Scenario matrix files, and the bundled library of them.

A matrix file is one JSON document in the form
:func:`~repro.scenarios.scenario_from_dict` checks (see its module for
the keys and EXPERIMENTS.md for a walkthrough).

Files are read by the stdlib ``json`` module, tightened twice: a
duplicate key and a ``NaN``/``Infinity`` literal — both of which bare
``json.load`` accepts — are errors.  Every way a file can fail to
read (missing, a directory, not UTF-8, not JSON) is a
:class:`~repro.errors.ConfigurationError` naming the path.

The bundled library (``repro scenario list``) lives next to this
module in ``library/*.json``; each file's stem is its scenario name.
:func:`list_scenarios` refuses a file whose ``name`` is not its stem,
and ``tests/test_scenarios.py``'s ``TestLibraryIsData`` checks the
shipped files: the pinned names, the shape, a ``smoke`` block, and
that each one loads.
"""

from __future__ import annotations

import json
import os

from ..errors import ConfigurationError
from .model import Scenario, scenario_from_dict

__all__ = [
    "get_scenario",
    "library_dir",
    "list_scenarios",
    "load_matrix",
]


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
