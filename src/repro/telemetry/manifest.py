"""Run manifests: a machine-readable record of one experiment run.

A manifest captures everything needed to reproduce and compare a run:
the configuration, the seed, the git revision and the kernel counter
snapshot.  Every front door's result carries one, built on first read
(:class:`~repro.telemetry.lazymanifest.LazyManifest`);
``repro metrics`` pretty-prints and diffs them.

Volatile facts (wall-clock timestamps, hostname, worker count) live in a
dedicated ``volatile`` section, so the part that must be bit-identical
across worker counts and machines is the manifest minus that one key.
"""

from __future__ import annotations

import json
import os
import time

from ..errors import ConfigurationError

#: Manifest schema version; bump on incompatible layout changes.
#: 2 dropped the ``bench`` section; a schema-1 file still loads and the
#: section, when it has one, is ignored.
SCHEMA_VERSION = 2

_GIT_REV_CACHE: str | None = None


def git_rev() -> str:
    """The repo's short git revision, or ``"unknown"`` outside a repo."""
    global _GIT_REV_CACHE
    if _GIT_REV_CACHE is None:
        import subprocess

        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True, text=True, timeout=5)
            _GIT_REV_CACHE = (out.stdout.strip()
                              if out.returncode == 0 and out.stdout.strip()
                              else "unknown")
        except (OSError, subprocess.SubprocessError):
            _GIT_REV_CACHE = "unknown"
    return _GIT_REV_CACHE


def build_manifest(
    kind: str,
    config: dict | None = None,
    seed: int | None = None,
    counters: dict | None = None,
    metrics: dict | None = None,
    aggregates: dict | None = None,
    volatile: dict | None = None,
) -> dict:
    """Assemble a manifest dict.

    Args:
        kind: what ran (``"fleet"``, ``"loadgen"``, ``"experiment"``, ...).
        config: the run's configuration, already JSON-serialisable.
        seed: base RNG seed.
        counters: kernel event-counter snapshot (name -> count).
        metrics: a :meth:`MetricsRegistry.snapshot` dict.
        aggregates: derived summary numbers (fractions, correlations).
        volatile: extra non-deterministic facts (durations, worker
            counts); merged into the ``volatile`` section.
    """
    import platform

    manifest = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "git_rev": git_rev(),
        "seed": seed,
        "config": config or {},
        "counters": dict(sorted((counters or {}).items())),
        "aggregates": aggregates or {},
        "metrics": metrics or {},
        "volatile": {
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host": platform.node(),
            "python": platform.python_version(),
            **(volatile or {}),
        },
    }
    return manifest


def write_manifest(path, manifest: dict) -> str:
    """Write *manifest* as JSON atomically (stage + ``os.replace``).

    A manifest is the durable proof a run happened as recorded — CI
    gates diff it — so a crash mid-write must never leave a truncated
    file where a previous good one stood (SL010 contract).
    """
    import tempfile

    path = str(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-manifest",
                               suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_manifest(path) -> dict:
    """Read one manifest; a file that is missing, not JSON or not a
    JSON object is a :class:`ConfigurationError` naming *path*."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(
            f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigurationError(
            f"manifest {path} must be a JSON object, not a "
            f"{type(manifest).__name__}")
    return manifest


def manifest_diff(a: dict, b: dict) -> dict:
    """Structured diff of two manifests (B relative to A).

    Returns ``{"meta": ..., "counters": ..., "aggregates": ...}`` where
    each counter row carries (a, b, delta).
    """
    meta = {
        key: {"a": a.get(key), "b": b.get(key)}
        for key in ("kind", "git_rev", "seed")
        if a.get(key) != b.get(key)
    }

    counters = {}
    ca, cb = a.get("counters", {}), b.get("counters", {})
    for name in sorted(set(ca) | set(cb)):
        va, vb = ca.get(name, 0), cb.get(name, 0)
        if va != vb:
            counters[name] = {"a": va, "b": vb, "delta": vb - va}

    aggregates = {}
    ga, gb = a.get("aggregates", {}), b.get("aggregates", {})
    for name in sorted(set(ga) | set(gb)):
        va, vb = ga.get(name), gb.get(name)
        if va != vb:
            aggregates[name] = {"a": va, "b": vb}

    return {"meta": meta, "counters": counters, "aggregates": aggregates}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def format_manifest(manifest: dict) -> str:
    """Human-readable one-manifest summary (``repro metrics A.json``)."""
    from ..analysis.reporting import format_table

    lines = [
        f"kind: {manifest.get('kind')}   seed: {manifest.get('seed')}   "
        f"git: {manifest.get('git_rev')}   "
        f"schema: {manifest.get('schema')}",
    ]
    config = manifest.get("config", {})
    if config:
        lines.append("")
        lines.append(format_table(
            ["Config", "Value"],
            [(k, _fmt(v)) for k, v in sorted(config.items())]))
    counters = manifest.get("counters", {})
    if counters:
        lines.append("")
        lines.append(format_table(
            ["Counter", "Count"],
            [(k, f"{v:,}") for k, v in sorted(counters.items())]))
    aggregates = manifest.get("aggregates", {})
    if aggregates:
        lines.append("")
        lines.append(format_table(
            ["Aggregate", "Value"],
            [(k, _fmt(v)) for k, v in sorted(aggregates.items())]))
    return "\n".join(lines)


def format_manifest_diff(diff: dict) -> str:
    """Render :func:`manifest_diff` output as aligned tables."""
    from ..analysis.reporting import format_table

    lines = []
    if diff["meta"]:
        lines.append(format_table(
            ["Meta", "A", "B"],
            [(k, _fmt(v["a"]), _fmt(v["b"]))
             for k, v in diff["meta"].items()],
            title="Run identity"))
    if diff["counters"]:
        lines.append(format_table(
            ["Counter", "A", "B", "Delta"],
            [(k, f"{v['a']:,}", f"{v['b']:,}", f"{v['delta']:+,}")
             for k, v in diff["counters"].items()],
            title="Counter deltas"))
    if diff["aggregates"]:
        lines.append(format_table(
            ["Aggregate", "A", "B"],
            [(k, _fmt(v["a"]), _fmt(v["b"]))
             for k, v in diff["aggregates"].items()],
            title="Aggregate changes"))
    if not lines:
        return "manifests are identical (ignoring volatile fields)"
    return "\n\n".join(lines)
