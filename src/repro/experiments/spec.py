"""Declarative experiment specs and the process-wide registry.

The paper's evaluation is a fixed catalogue of figures and tables, each
derived from a small number of expensive steady-state runs.  An
:class:`ExperimentSpec` captures one such derivation declaratively:

* a **name** (the CLI handle: ``repro experiment run <name>``);
* **defaults** — the resolved configuration, a flat dict of JSON
  scalars, every key overridable from the CLI (``--set key=value``);
* a **seed policy** — the spec's default base seed, overridable per run;
* a **producer** — the function that actually simulates, returning
  JSON-serialisable result rows (cached content-addressed, see
  :mod:`repro.experiments.cache`);
* a **version** — the code salt in the cache key: bump it when the
  producer's semantics change so stale cached rows can never satisfy a
  new binary;
* an optional **postprocess** — rows → rendered report text, run on
  every invocation (cheap), never cached;
* **claims** — the paper's statements about the rows, typed
  :mod:`~repro.experiments.claims` (``repro experiment verify``); never
  part of the cache key, since they judge rows and produce none.

Producers compose through :meth:`ExperimentContext.fetch`: a figure spec
fetches the shared underlying run (e.g. ``fleet-survey``) through the
same cache, so overlapping figures (4/5/6, or 11/12/§5.2 in the paper)
cost one simulation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError
from .claims import Claim

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

#: Parameter values must be flat JSON scalars so configs hash stably.
#: ``bool`` comes first: to Python it is an ``int``, to JSON it is not.
_JSON_TYPES = ((bool, "boolean"), (int, "integer"), (float, "float"),
               (str, "string"), (type(None), "null"))
_SCALARS = tuple(kind for kind, _ in _JSON_TYPES)


def _json_type(value: Any) -> str:
    return next(name for kind, name in _JSON_TYPES
                if isinstance(value, kind))


@dataclass(frozen=True)
class ExperimentContext:
    """What a producer sees for one (config, seed) cell.

    ``fetch(name, overrides=...)`` resolves another experiment's rows
    through the same cache, metrics registry, worker budget, and fault
    plan — the dependency mechanism that lets several figures share one
    steady-state run.  A dependency always runs at this cell's seed.

    ``checkpoint_every``/``checkpoint_dir`` are the mid-cell durability
    knobs: producers that run long surveys or bursts splat
    :attr:`checkpointing` into the underlying front door
    (``run_fleet``, ``run_loadgen``, ``run_workload``) so a killed cell
    resumes from its last good checkpoint instead of recomputing;
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


@dataclass(frozen=True)
class ExperimentSpec:
    """One declaratively-registered experiment (see module docstring)."""

    name: str
    description: str
    producer: Callable[[ExperimentContext], list]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    version: int = 1
    figure: str = ""
    postprocess: Callable[[list, Mapping[str, Any]], str] | None = None
    claims: tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ConfigurationError(
                f"experiment name {self.name!r} must be kebab-case "
                "([a-z0-9-], starting alphanumeric)")
        if not isinstance(self.description, str) or not self.description:
            raise ConfigurationError(
                f"experiment {self.name!r}: description must be a "
                "non-empty string")
        object.__setattr__(self, "claims", tuple(self.claims))
        ids = [claim.id for claim in self.claims
               if isinstance(claim, Claim)]
        if len(ids) != len(self.claims) or len(set(ids)) != len(ids):
            raise ConfigurationError(
                f"experiment {self.name!r}: claims must be Claim "
                f"instances with distinct ids, got {ids}")
        if not callable(self.producer):
            raise ConfigurationError(
                f"experiment {self.name!r}: producer must be callable")
        for key, value in self.defaults.items():
            if not isinstance(value, _SCALARS):
                raise ConfigurationError(
                    f"experiment {self.name!r}: default {key}={value!r} "
                    "is not a JSON scalar (configs must hash stably)")
        if self.version < 1:
            raise ConfigurationError(
                f"experiment {self.name!r}: version must be >= 1")

    def resolve(self, overrides: Mapping[str, Any] | None = None) -> dict:
        """Defaults merged with *overrides*.  Unknown keys fail loudly,
        and so does a value whose JSON type is not its default's (an
        integer is taken where the default is a float, anything where
        it is null): ``--set steps=abc`` is refused here, by name, not
        as a ``TypeError`` somewhere inside the producer.  A ``NaN`` or
        infinite float is refused too: no cache key can hold it.  Nothing
        is coerced, so the check moves no cache key."""
        config = dict(self.defaults)
        for key, value in (overrides or {}).items():
            if key not in config:
                raise ConfigurationError(
                    f"unknown parameter {key!r} for experiment "
                    f"{self.name!r}; known: {sorted(config)}")
            if not isinstance(value, _SCALARS):
                raise ConfigurationError(
                    f"experiment {self.name!r}: override {key}={value!r} "
                    "is not a JSON scalar")
            expected = _json_type(self.defaults[key])
            given = _json_type(value)
            if expected not in ("null", given) and (
                    expected, given) != ("float", "integer"):
                raise ConfigurationError(
                    f"experiment {self.name!r}: parameter {key!r} expects "
                    f"{expected}, got {given} {value!r}")
            if given == "float" and not math.isfinite(value):
                raise ConfigurationError(
                    f"experiment {self.name!r}: parameter {key!r} must be "
                    f"finite, got {value!r}")
            config[key] = value
        return config


#: The process-wide spec registry (built-ins register when their family
#: module is imported; tests add and remove their own).
_REGISTRY: dict[str, ExperimentSpec] = {}

#: Each built-in spec family's module and the names it registers, in
#: registration order.  A family is imported the first time one of its
#: names is asked for, so a warm ``repro scenario run`` compiles one
#: family and ``import repro.experiments`` compiles none.
FAMILIES: dict[str, tuple[str, ...]] = {
    "repro.experiments.survey": (
        "fleet-survey", "fig04-contiguity-cdf", "fig05-unmovable-cdf",
        "fig06-sources", "s24-uptime-corr"),
    "repro.experiments.steady": (
        "workload-steady", "steady-profile", "fig11-unmovable",
        "fig12-potential", "s52-internal-frag"),
    "repro.experiments.latency": (
        "tail-latency-interference", "fig13-unavailable",
        "s53-interference"),
    "repro.experiments.analytic": (
        "fig02-hwgen", "fig03-walk-cycles", "fig10-endtoend",
        "s53-hwcost", "alg1-resizing"),
    "repro.experiments.ablations": (
        "ablation-placement", "ablation-designs", "ablation-pcp",
        "ablation-autotune"),
}
_HOME = {name: module for module, names in FAMILIES.items()
         for name in names}


def _load_family(name: str) -> None:
    """Import the family module that registers built-in *name*, if any
    (a no-op once imported, and while it is being imported).  Through
    ``__import__``: ``importlib.import_module`` bypasses the import
    statement's machinery, so ``-X importtime`` (which CI reads) would
    not list the family."""
    if name in _HOME:
        __import__(_HOME[name])


def register(spec: ExperimentSpec, replace: bool = False) -> ExperimentSpec:
    """Add *spec* to the registry; duplicate names fail unless *replace*
    (a built-in's name is taken whether or not its family has loaded)."""
    _load_family(spec.name)
    if spec.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"experiment {spec.name!r} is already registered "
            "(pass replace=True to override)")
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    _load_family(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered: "
            + ", ".join(spec.name for spec in all_specs())) from None


def all_specs() -> list[ExperimentSpec]:
    """Every registered spec, name-sorted (every family imported)."""
    for module in FAMILIES:
        __import__(module)
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
