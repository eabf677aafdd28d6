"""Content-addressed on-disk result cache for experiment runs.

Every experiment result is stored under a key that is a stable SHA-256
of *everything that determines the rows*:

* the spec's name and **version** (the code salt — bump the version
  when producer semantics change and old entries become unreachable);
* the fully **resolved config** (defaults + overrides, canonical JSON);
* the **seed**;
* the **fault plan** snapshot, when a chaos run is cached at all.

Identical (spec, config, seed, plan) runs therefore hit the same entry
across processes, grids, and figures.  The figures sharing one run
(``fleet-survey``, ``steady-profile``) pay for it once, and the store
is the checkpoint mechanism that makes an interrupted grid (``repro
scenario run``) resumable: every completed cell is an atomically-written
cache file, so a rerun recomputes only the missing cells.

Entries contain no volatile facts (no timestamps, hosts, durations), so
an identical run writes a byte-identical cache file; rows are
normalised through one canonical JSON round trip before they are stored
*and* before they are returned, so producer output and cache hits are
indistinguishable byte for byte.

The default location is ``benchmarks/results/cache/`` at the repo root
(override with ``$REPRO_EXPERIMENT_CACHE`` or an explicit root).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from ..errors import ConfigurationError

#: Cache entry layout version; part of every key, so bumping it
#: invalidates the whole store without deleting anything.
CACHE_SCHEMA = 1

#: Environment override for the cache root directory.
CACHE_ENV = "REPRO_EXPERIMENT_CACHE"


def canonical_json(value) -> str:
    """The one JSON spelling used for hashing and storage: sorted keys,
    no whitespace.  Raises :class:`ConfigurationError` for
    non-serialisable values so producers fail loudly, not at hit time."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"experiment payload is not canonical-JSON-serialisable: {exc}"
        ) from None


def result_key(spec_name: str, version: int, config: dict, seed: int,
               plan_snapshot: dict | None = None) -> str:
    """The content address of one experiment cell's rows."""
    material = canonical_json({
        "schema": CACHE_SCHEMA,
        "spec": spec_name,
        "version": version,
        "config": config,
        "seed": seed,
        "plan": plan_snapshot,
    })
    return hashlib.sha256(material.encode()).hexdigest()


def default_cache_dir() -> str:
    """``$REPRO_EXPERIMENT_CACHE``, else ``benchmarks/results/cache``
    at the repo root (when running from a source checkout), else a
    ``.repro-experiment-cache`` directory under the cwd."""
    env = os.environ.get(CACHE_ENV, "").strip()
    if env:
        return env
    pkg = os.path.dirname(os.path.abspath(__file__))   # src/repro/experiments
    root = os.path.dirname(os.path.dirname(os.path.dirname(pkg)))
    if os.path.isdir(os.path.join(root, "benchmarks")):
        return os.path.join(root, "benchmarks", "results", "cache")
    return os.path.join(os.getcwd(), ".repro-experiment-cache")


class ResultCache:
    """Content-addressed store: one JSON file per result, fanned out by
    key prefix (``<root>/<key[:2]>/<key>.json``)."""

    def __init__(self, root: str | None = None) -> None:
        self.root = root or default_cache_dir()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def load(self, key: str) -> dict | None:
        """The full stored entry, or None on miss/corruption (a corrupt
        entry — e.g. a file truncated by a crash predating atomic
        writes — is treated as a miss and recomputed)."""
        try:
            with open(self.path_for(key)) as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("schema") != CACHE_SCHEMA or "rows" not in entry:
            return None
        return entry

    def get(self, key: str) -> list | None:
        """The cached rows for *key*, or None on a miss."""
        entry = self.load(key)
        return None if entry is None else entry["rows"]

    def put(self, key: str, rows: list, *, spec_name: str, version: int,
            config: dict, seed: int,
            plan_snapshot: dict | None = None) -> list:
        """Store *rows* under *key* atomically; returns the rows as a
        later hit would see them (canonical-JSON round-tripped, so
        tuples become lists and int/float identity is pinned)."""
        normalised = json.loads(canonical_json(rows))
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "spec": spec_name,
            "version": version,
            "config": config,
            "seed": seed,
            "plan": plan_snapshot,
            "rows": normalised,
        }
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Atomic publish: a sweep killed mid-write leaves no torn cell,
        # so the resume pass recomputes it instead of trusting garbage.
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True, indent=1)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return normalised

    def keys(self) -> list[str]:
        """Every stored key (for ``repro experiment report`` listings)."""
        found = []
        if not os.path.isdir(self.root):
            return found
        for prefix in sorted(os.listdir(self.root)):
            sub = os.path.join(self.root, prefix)
            if not os.path.isdir(sub):
                continue
            for name in sorted(os.listdir(sub)):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    found.append(name[:-len(".json")])
        return found
