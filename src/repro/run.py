"""One run session under the front doors.

``run_workload``, ``run_loadgen``, ``run_fleet`` and ``survey_fleet``
each own a genuinely different loop (a step range, an arrival index
that jumps the clock, an unordered scan stream) and nothing else.
Everything *around* the loop lives here, once:

1. open the :class:`~repro.checkpoint.CheckpointStore` from the
   ``(checkpoint_every, checkpoint_dir, resume)`` triple — only
   ``run_workload`` and ``run_fleet`` pass it;
2. :meth:`RunSession.restore` — load the last good checkpoint and
   refuse it unless it was written by a run with this run's identity;
3. :meth:`RunSession.boundary` — save when due, tolerate a failed
   write, give the ``sim.crash`` fault site its shot;
4. :meth:`RunSession.manifest` — the run manifest's parts known when
   the loop ends, checkpoint bookkeeping under ``volatile`` only; the
   result builds the manifest from them when it is first read
   (:class:`~repro.telemetry.lazymanifest.LazyManifest`).

A killed run is finished by calling its front door again with
``resume=True`` (or rerunning its ``experiment``/``scenario``
command).  Tracing is not a session's business: wrap the front door
call in :func:`~repro.telemetry.tracing`.  See the "Run session"
section of docs/INTERNALS.md.
"""

from __future__ import annotations

import json
from typing import Callable

from .errors import CheckpointWriteError, ConfigurationError


class RunSession:
    """Everything around one run loop.

    ``kind`` names both the checkpoint store (``<kind>.ckpt``) and the
    manifest's kind.  ``identity`` is the JSON-safe dict that says
    *which run this is* — the manifest's deterministic ``config``
    section — and is stored in the checkpoint header so a resume over
    another run's directory is refused instead of silently blending
    the two.  Worker count, chunk size and cadence are deliberately not
    identity: they cannot change results.
    """

    def __init__(self, kind: str, identity: dict, *,
                 checkpoint_every: int = 0,
                 checkpoint_dir: str | None = None,
                 resume: bool = False) -> None:
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}")
        self.kind = kind
        self.identity = identity
        self.every = checkpoint_every
        self.resume = resume
        #: None is the no-checkpoint fast path.  A directory with
        #: ``resume`` alone opens it too: resuming needs no cadence.
        self.store = None
        if checkpoint_dir is not None and (checkpoint_every or resume):
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
                f"different campaign ({self.kind} "
                f"{'; '.join(differing)})")
        return ckpt

    def boundary(self, done: int, make_payload: Callable[[], dict]) -> None:
        """One checkpoint boundary after *done* units of work.

        A failed write is counted by the store, both generations stay
        intact and the run continues — a run that *stays* unable to
        checkpoint goes stale and the deadline watchdog flags it.
        """
        if self.store is None or not self.every or done % self.every:
            return
        from .checkpoint import maybe_crash
        try:
            self.store.save(self.kind, done, make_payload(),
                            meta={"identity": self.identity})
        except CheckpointWriteError:
            pass
        maybe_crash(done, kind=self.kind)

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
        return {"kind": self.kind, "config": self.identity,
                "seed": seed, "volatile": volatile}
