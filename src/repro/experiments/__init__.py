"""Experiment orchestration: declarative specs, their claims and
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

from .._lazy import lazy_exports

# Resolved on first use: a warm ``scenario run`` needs the cache, the
# runner and the specs, and never the verifier (docs/INTERNALS.md,
# "Import tiers").
__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("CACHE_ENV", "CACHE_SCHEMA", "ResultCache", "canonical_json",
               "default_cache_dir", "result_key"),
    ".claims": ("Band", "Claim", "Ordered"),
    ".context": ("ExperimentContext",),
    ".runner": ("ExperimentResult", "load_cached", "run_experiment"),
    ".spec": ("ExperimentSpec", "all_specs", "get_spec", "register"),
    ".verify": ("Verdict", "verify_claims"),
})

__all__ = [
    "Band",
    "CACHE_ENV",
    "CACHE_SCHEMA",
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
    "get_spec",
    "load_cached",
    "register",
    "result_key",
    "run_experiment",
    "verify_claims",
]
