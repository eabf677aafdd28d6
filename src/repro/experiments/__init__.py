"""Experiment orchestration: declarative specs, the grid engine and
content-addressed result caching.

This is the front door for reproducing the paper's figures::

    from repro.experiments import run_experiment

    result = run_experiment("fig04-contiguity-cdf", seed=7)
    print(result.report())

Identical (spec, config, seed, plan) invocations are served from the
on-disk cache (``benchmarks/results/cache/``) byte for byte; a grid is
a scenario matrix (:func:`repro.scenarios.run_scenario`), which lands
every finished cell here, so an interrupted grid resumes without
recomputing anything.  The built-in paper specs live in five family
modules (``spec.FAMILIES``), each imported the first time one of its
names is asked for.  See docs/API.md for the stable surface and
EXPERIMENTS.md for the CLI walkthrough.
"""

from .cache import (
    CACHE_ENV,
    CACHE_SCHEMA,
    ResultCache,
    canonical_json,
    default_cache_dir,
    result_key,
)
from .claims import Band, Claim, Ordered, Verdict, verify_claims
from .grid import (
    Axis,
    AxisValue,
    Cell,
    expand_axes,
    value_id,
)
from .runner import ExperimentResult, load_cached, run_experiment
from .spec import (
    ExperimentContext,
    ExperimentSpec,
    all_specs,
    get_spec,
    register,
)

__all__ = [
    "Axis",
    "AxisValue",
    "Band",
    "CACHE_ENV",
    "CACHE_SCHEMA",
    "Cell",
    "Claim",
    "ExperimentContext",
    "ExperimentResult",
    "ExperimentSpec",
    "Ordered",
    "ResultCache",
    "Verdict",
    "all_specs",
    "canonical_json",
    "default_cache_dir",
    "expand_axes",
    "get_spec",
    "load_cached",
    "register",
    "result_key",
    "run_experiment",
    "value_id",
    "verify_claims",
]
