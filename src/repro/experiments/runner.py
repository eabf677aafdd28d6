"""Experiment execution: one cache-aware cell at a time.

:func:`run_experiment` drives one (spec, config, seed) cell: resolve the
config, compute the content address, serve the rows from the
:class:`~repro.experiments.cache.ResultCache` on a hit, otherwise call
the producer (which fans heavy fleet work out through the supervised
:mod:`repro.fleet.engine` pool) and checkpoint the rows atomically.

Grids are :func:`repro.scenarios.run_scenario`'s: it calls this once per
cell, so every completed cell is durably checkpointed the moment it
finishes — killing a grid midway loses only the in-flight cell, and the
rerun recomputes nothing that already landed (resumption *is* cache
hits).

Telemetry: every run folds ``experiment.cache_hit`` /
``experiment.cache_miss`` counters into a
:class:`~repro.telemetry.MetricsRegistry` and snapshots them for its run
manifest — the machine-checkable record CI's experiment-smoke job gates
on.  The manifest itself is built on first read of
:attr:`ExperimentResult.manifest`, so a run nobody asks it of never
forks ``git``.  Fault plans
ride in unchanged: a ``--plan`` chaos experiment is cached under a key
that includes the plan snapshot, so chaos rows never masquerade as
clean ones.
"""

from __future__ import annotations

import os
import shutil

from ..errors import ConfigurationError
from ..telemetry import MetricsRegistry, tracepoint
from ..telemetry.lazymanifest import LazyManifest
from .cache import ResultCache, result_key
from .spec import ExperimentSpec, get_spec

_tp_run = tracepoint("experiment.run")
_tp_hit = tracepoint("experiment.cache.hit")
_tp_miss = tracepoint("experiment.cache.miss")


class ExperimentResult(LazyManifest):
    """One cell's outcome: the rows plus enough context to report it,
    and its manifest, built on first read of :attr:`manifest`."""

    __slots__ = ("spec", "config", "seed", "key", "rows", "cached")

    def __init__(self, spec: ExperimentSpec, config: dict, seed: int,
                 key: str, rows: list, cached: bool) -> None:
        self.spec, self.config, self.seed = spec, config, seed
        self.key, self.rows, self.cached = key, rows, cached

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__)

    def report(self) -> str:
        """The spec's rendered report (its ``postprocess``), or a plain
        row dump when the spec declares none.  Pure function of the
        rows and config, so cached and fresh runs render identically."""
        if self.spec.postprocess is not None:
            return self.spec.postprocess(self.rows, self.config)
        import json

        return json.dumps(self.rows, indent=2, sort_keys=True)


def _plan_snapshot(plan) -> dict | None:
    return None if plan is None else plan.snapshot()


def _address(name: str, overrides: dict | None, seed: int | None, plan,
             cache: ResultCache | None):
    """One cell's (spec, config, seed, cache, key), defaults filled in."""
    if seed is not None and type(seed) is not int:
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    spec = get_spec(name)
    config = spec.resolve(overrides)
    seed = spec.seed if seed is None else seed
    cache = ResultCache() if cache is None else cache
    return spec, config, seed, cache, result_key(
        spec.name, spec.version, config, seed, _plan_snapshot(plan))


def run_experiment(name: str,
                   overrides: dict | None = None,
                   seed: int | None = None,
                   workers: int | None = None,
                   plan=None,
                   cache: ResultCache | None = None,
                   force: bool = False,
                   metrics: MetricsRegistry | None = None,
                   checkpoint_every: int = 0,
                   checkpoint_dir: str | None = None) -> ExperimentResult:
    """Run (or serve from cache) one experiment cell.

    Args:
        name: a registered spec name (``repro experiment list``).
        overrides: config overrides onto the spec's defaults; unknown
            keys raise :class:`~repro.errors.ConfigurationError`.
        seed: base seed (default: the spec's seed policy).
        workers: fleet worker budget handed to producers (``None`` =
            engine default); never part of the cache key because worker
            count cannot change results (bit-identity contract).
        plan: a :class:`~repro.faults.FaultPlan` for chaos experiments;
            keyed into the content address via its snapshot.
        cache: result store (default: the shared on-disk cache).
        force: recompute and overwrite even on a hit, from the first
            unit of work: the derived checkpoint directory is emptied
            first, so no earlier run's state is resumed into the rows.
        metrics: shared registry (a scenario passes one across cells);
            ``experiment.*`` counters land here and the result's
            manifest snapshots them.
        checkpoint_every: when > 0, the producer writes to
            ``<cache>/checkpoints/<key>`` every N units of work and
            auto-resumes from the last good checkpoint on the next miss
            of the same cell — a killed cell loses at most one
            checkpoint interval.  The directory is removed once the
            rows land in the cache.  Handed to fetched dependencies,
            each under its own key.  Never part of the cache key
            (checkpointing cannot change results).  Only a spec whose
            ``checkpoints`` is set takes it (or ``checkpoint_dir``);
            any other refuses both with a
            :class:`~repro.errors.ConfigurationError`.
        checkpoint_dir: explicit checkpoint directory, overriding the
            derived ``<cache>/checkpoints/<key>`` path — how
            ``repro experiment run --resume-from`` points a rerun at a
            killed cell's checkpoints, and handed to fetched
            dependencies as it is.  Never deleted, ``force`` or not.
    """
    spec, config, seed, cache, key = _address(name, overrides, seed, plan,
                                              cache)
    if (checkpoint_every or checkpoint_dir is not None) \
            and not spec.checkpoints:
        from .spec import all_specs

        raise ConfigurationError(
            f"experiment {spec.name!r} does not checkpoint; these do: "
            + ", ".join(s.name for s in all_specs() if s.checkpoints))
    if metrics is None:
        metrics = MetricsRegistry()
    if _tp_run.enabled:
        _tp_run.emit(spec=spec.name, seed=seed, key=key[:12])

    rows = None if force else cache.get(key)
    cached = rows is not None
    if cached:
        metrics.inc("experiment.cache_hit")
        if _tp_hit.enabled:
            _tp_hit.emit(spec=spec.name, key=key[:12])
    else:
        metrics.inc("experiment.cache_miss")
        if _tp_miss.enabled:
            _tp_miss.emit(spec=spec.name, key=key[:12])

        # An explicit directory goes to the fetched dependency, which
        # is the part that checkpoints; a derived one is per key.
        explicit = checkpoint_dir

        def fetch(dep: str, overrides: dict | None = None) -> list:
            dep_result = run_experiment(
                dep, overrides=overrides, seed=seed, workers=workers,
                plan=plan, cache=cache, metrics=metrics,
                checkpoint_every=checkpoint_every, checkpoint_dir=explicit)
            return dep_result.rows

        from .context import ExperimentContext

        derived = None
        if checkpoint_dir is None and checkpoint_every:
            derived = checkpoint_dir = os.path.join(
                cache.root, "checkpoints", key)
            if force and os.path.isdir(derived):
                shutil.rmtree(derived)
        ctx = ExperimentContext(
            spec_name=spec.name, params=config, seed=seed,
            workers=workers, fault_plan=plan, fetch=fetch,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir)
        produced = spec.producer(ctx)
        if not isinstance(produced, list):
            raise ConfigurationError(
                f"experiment {spec.name!r}: producer must return a list "
                f"of rows, got {type(produced).__name__}")
        rows = cache.put(key, produced, spec_name=spec.name,
                         version=spec.version, config=config,
                         seed=seed, plan_snapshot=_plan_snapshot(plan))
        if derived is not None:
            # The rows are durable: a checkpoint kept past them is only
            # ever met again by a forced rerun, which must not resume.
            shutil.rmtree(derived, ignore_errors=True)

    result = ExperimentResult(spec=spec, config=config, seed=seed,
                              key=key, rows=rows, cached=cached)
    result.manifest_parts = {
        "kind": "experiment",
        "config": {"experiment": spec.name, "version": spec.version,
                   "fault_plan": _plan_snapshot(plan),
                   "params": config, "cache_key": key},
        "seed": seed,
        "counters": metrics.counters.snapshot(),
        "aggregates": {"rows": len(rows)},
        "volatile": {"cache_dir": cache.root}}
    return result


def load_cached(name: str,
                overrides: dict | None = None,
                seed: int | None = None,
                plan=None,
                cache: ResultCache | None = None) -> ExperimentResult | None:
    """The cached result for one cell without ever computing — the
    ``repro experiment report`` path.  Returns None on a miss."""
    spec, config, seed, cache, key = _address(name, overrides, seed, plan,
                                              cache)
    rows = cache.get(key)
    if rows is None:
        return None
    return ExperimentResult(spec=spec, config=config, seed=seed, key=key,
                            rows=rows, cached=True)
