"""One run session under the four front doors.

``run_workload``, ``run_loadgen``, ``run_fleet`` and ``survey_fleet``
each own a genuinely different loop (a step range, an arrival index
that jumps the clock, an unordered scan stream) and nothing else.
Everything *around* the loop lives here, once:

1. open the :class:`~repro.checkpoint.CheckpointStore` from the
   ``(checkpoint_every, checkpoint_dir, resume)`` triple;
2. :meth:`RunSession.restore` — load the last good checkpoint and
   refuse it unless it was written by a run with this run's identity;
3. :meth:`RunSession.boundary` — save when due, tolerate a failed
   write, give the ``sim.crash`` fault site its shot;
4. :meth:`RunSession.manifest` — the run manifest's parts known when
   the loop ends, checkpoint bookkeeping under ``volatile`` only; the
   result builds the manifest from them when it is first read
   (:class:`~repro.telemetry.manifest.LazyManifest`).

Tracing is not a session's business: wrap the front door call in
:func:`~repro.telemetry.tracing`.

:data:`KINDS` is the registry ``repro checkpoint resume`` reads:
adding a run kind is one loop that calls into a session plus one row
here.  See the "Run session" section of docs/INTERNALS.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import import_module
from typing import Callable

from .errors import CheckpointWriteError, ConfigurationError


@dataclass(frozen=True)
class RunKind:
    """One resumable run kind.

    Attributes:
        name: the checkpoint kind and store name (``<name>.ckpt``).
        manifest_kind: the ``kind`` its run manifest carries.
        door: ``"module:function"`` of the front door, resolved at call
            time so this module imports none of the layers above it.
        config: ``"module:Class"`` of the config, for a kind whose
            checkpoints are data (:class:`~repro.checkpoint.format.
            Sections`): the config rides as ``Class.state()`` JSON and
            comes back through ``Class.from_state``.  Empty: the config
            is pickled with the rest of the payload.
    """

    name: str
    manifest_kind: str
    door: str
    config: str = ""


def _resolve(name: str):
    module, _, attr = name.partition(":")
    return getattr(import_module(module), attr)


KINDS: dict[str, RunKind] = {kind.name: kind for kind in (
    RunKind("workload", "workload", "repro.workloads:run_workload",
            "repro.workloads:WorkloadConfig"),
    RunKind("loadgen", "loadgen", "repro.workloads:run_loadgen"),
    RunKind("fleet", "fleet", "repro.fleet:run_fleet"),
    RunKind("fleet-survey", "fleet", "repro.fleet:survey_fleet"),
)}


class RunSession:
    """Everything around one run loop.

    ``config`` rides in every checkpoint payload (as JSON for a kind
    whose checkpoints are data, else pickled) so ``repro checkpoint
    resume <dir>`` needs no flags.  ``identity`` is the
    JSON-safe dict that says *which run this is* — the manifest's
    deterministic ``config`` section — and is stored in the checkpoint
    header so a resume over another run's directory is refused instead
    of silently blending the two.  Worker count, chunk size and cadence
    are deliberately not identity: they cannot change results.
    """

    def __init__(self, kind: str, config, identity: dict, *,
                 checkpoint_every: int = 0,
                 checkpoint_dir: str | None = None,
                 resume: bool = False) -> None:
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}")
        self.kind = KINDS[kind]
        self.config = config
        self.identity = identity
        self.every = checkpoint_every
        self.resume = resume
        #: None is the no-checkpoint fast path: hot loops may test this
        #: before building a payload closure.
        self.store = None
        if checkpoint_every and checkpoint_dir is not None:
            from .checkpoint import CheckpointStore
            self.store = CheckpointStore(checkpoint_dir, kind)

    def restore(self):
        """The last good checkpoint of *this* run, or None.

        Raises:
            ConfigurationError: the directory holds a checkpoint whose
                recorded identity differs from this run's.
        """
        if self.store is None or not self.resume:
            return None
        ckpt = self.store.load_latest()
        if ckpt is None:
            return None
        recorded = ckpt.meta.get("identity") or {}
        # Through JSON, as the recorded side went: tuples become lists.
        ours = json.loads(json.dumps(self.identity))
        differing = [f"{key}: {recorded.get(key)!r} there, "
                     f"{ours.get(key)!r} in this run"
                     for key in sorted({*recorded, *ours})
                     if recorded.get(key) != ours.get(key)]
        if differing:
            raise ConfigurationError(
                f"checkpoint in {self.store.directory!r} belongs to a "
                f"different campaign ({self.kind.name} "
                f"{'; '.join(differing)})")
        return ckpt

    @cached_property
    def _saved_config(self):
        """What every checkpoint carries of the config (see RunKind)."""
        return self.config.state() if self.kind.config else self.config

    def boundary(self, done: int, make_payload: Callable[[], dict]) -> None:
        """One checkpoint boundary after *done* units of work.

        A failed write is counted by the store, both generations stay
        intact and the run continues — a run that *stays* unable to
        checkpoint goes stale and the deadline watchdog flags it.
        """
        if self.store is None or done % self.every:
            return
        from .checkpoint import maybe_crash
        payload = make_payload()
        payload["config"] = self._saved_config
        try:
            self.store.save(
                self.kind.name, done, payload,
                meta={"identity": self.identity,
                      "checkpoint_every": self.every})
        except CheckpointWriteError:
            pass
        maybe_crash(done, kind=self.kind.name)

    def manifest(self, *, seed: int, **volatile) -> dict:
        """:func:`~repro.telemetry.build_manifest`'s keywords known when
        the run ends: kind, identity, seed and *volatile*; the result
        adds its counters and aggregates (``manifest_derived``)."""
        if self.store is not None:
            # Volatile by design: resumed, uninterrupted and
            # never-checkpointed runs share one deterministic view.
            volatile.update({"checkpoint_dir": self.store.directory,
                             "checkpoint_every": self.every,
                             "resumed": self.resume})
        return {"kind": self.kind.manifest_kind, "config": self.identity,
                "seed": seed, "volatile": volatile}


def load_resumable(directory: str, name: str):
    """The last good checkpoint of store *name*, checked to be
    resumable from its payload alone.

    Raises:
        ConfigurationError: nothing valid on disk, an unregistered
            kind, or a payload that embeds no config.
        CheckpointError: every generation failed validation.
    """
    from .checkpoint import CheckpointStore
    ckpt = CheckpointStore(directory, name).load_latest()
    if ckpt is None:
        raise ConfigurationError(
            f"store {name!r} under {directory!r} has no valid generations")
    if ckpt.kind not in KINDS:
        raise ConfigurationError(
            f"don't know how to resume checkpoint kind {ckpt.kind!r}")
    if not (isinstance(ckpt.payload, dict) and ckpt.payload.get("config")):
        raise ConfigurationError(
            f"{ckpt.path} carries no embedded config; resume it through "
            f"the original entry point's --resume-from instead")
    return ckpt


def resume_run(ckpt, directory: str, *, checkpoint_every: int = 0):
    """Finish the run *ckpt* (from :func:`load_resumable`) belongs to;
    returns the front door's result (its ``snapshot()`` is what
    ``repro checkpoint resume`` prints, its ``manifest`` what
    ``--manifest`` writes)."""
    kind = KINDS[ckpt.kind]
    config = ckpt.payload["config"]
    if kind.config:
        try:
            config = _resolve(kind.config).from_state(config)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{ckpt.path}: embedded config does not load: {exc!r}")
    return _resolve(kind.door)(
        config, checkpoint_dir=directory, resume=True,
        checkpoint_every=checkpoint_every or ckpt.meta["checkpoint_every"])
