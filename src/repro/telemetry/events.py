"""Tracepoints: ftrace-style named probes with a near-zero disabled path.

Instrumented modules declare probes once at import time::

    from ..telemetry import tracepoint

    _tp_alloc = tracepoint("mm.buddy.alloc")

and fire them on the hot path behind the probe's own ``enabled`` flag::

    if _tp_alloc.enabled:
        _tp_alloc.emit(ts=now, pfn=pfn, order=order)

The guard is the overhead contract: when tracing is off (the default) a
call site costs one attribute load and one branch — the keyword
arguments are never even built.  :meth:`Tracepoint.emit` re-checks the
flag so that un-guarded call sites are merely slow, never wrong.

Events are stamped with *simulated* time: a kernel registers itself as
the clock (:func:`set_sim_clock`) and every event emitted without an
explicit ``ts`` reads the kernel's ``now``.  The event records, the
sinks they go to and the :func:`~repro.telemetry.sinks.tracing` scope
live in :mod:`repro.telemetry.sinks`, which only a traced run loads:
every instrumented module imports this one, a warm ``scenario run``
among them (docs/INTERNALS.md, "Import tiers").
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator
from fnmatch import fnmatchcase
from functools import cached_property


class Tracepoint:
    """A named probe.  Disabled by default; see the module docstring for
    the guarded call-site idiom."""

    __slots__ = ("name", "enabled", "_registry")

    def __init__(self, name: str, registry: "TracepointRegistry") -> None:
        self.name = name
        self.enabled = False
        self._registry = registry

    def emit(self, ts: int | None = None, **fields) -> None:
        """Record one event (no-op while disabled)."""
        if not self.enabled:
            return
        registry = self._registry
        if ts is None:
            ts = registry.now()
        event = registry.event_type(self.name, ts, fields)
        for sink in registry.sinks:
            sink.append(event)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "on" if self.enabled else "off"
        return f"<Tracepoint {self.name} {state}>"


class TracepointRegistry:
    """All tracepoints plus the attached sinks and the simulated clock.

    One process-wide instance (:data:`TRACEPOINTS`) backs the whole
    simulator; per-experiment isolation comes from the :func:`tracing`
    context manager, which saves and restores enablement and sinks.
    """

    def __init__(self) -> None:
        self._points: dict[str, Tracepoint] = {}
        self.sinks: list = []
        self._clock_ref: weakref.ReferenceType | None = None

    @cached_property
    def event_type(self):
        """What an event is built as, loaded by the first emit: a
        process that never traces never loads the sinks module."""
        from .sinks import TraceEvent

        return TraceEvent

    # -- declaration / lookup -------------------------------------------

    def tracepoint(self, name: str) -> Tracepoint:
        """Declare (or fetch) the probe called *name*.  Idempotent."""
        tp = self._points.get(name)
        if tp is None:
            tp = self._points[name] = Tracepoint(name, self)
        return tp

    def get(self, name: str) -> Tracepoint | None:
        return self._points.get(name)

    def names(self) -> list[str]:
        """All declared tracepoint names, sorted."""
        return sorted(self._points)

    def __iter__(self) -> Iterator[Tracepoint]:
        return iter(self._points.values())

    # -- enablement ------------------------------------------------------

    def enable(self, *patterns: str) -> list[str]:
        """Enable probes whose names match any glob *pattern* (default all).

        Returns the names enabled; unknown patterns enable nothing (the
        probe may simply not be imported yet — enable after import).
        """
        if not patterns:
            patterns = ("*",)
        hit = []
        for name, tp in self._points.items():
            if any(fnmatchcase(name, p) for p in patterns):
                tp.enabled = True
                hit.append(name)
        return sorted(hit)

    # -- sinks -----------------------------------------------------------

    def attach(self, sink) -> None:
        if sink not in self.sinks:
            self.sinks.append(sink)

    def detach(self, sink) -> None:
        if sink in self.sinks:
            self.sinks.remove(sink)

    # -- simulated clock -------------------------------------------------

    def set_clock(self, obj) -> None:
        """Register *obj* (anything with a ``now`` attribute, typically a
        kernel) as the timestamp source.  Held weakly so a dead kernel
        never keeps ticking; the latest registration wins."""
        self._clock_ref = weakref.ref(obj) if obj is not None else None

    def now(self) -> int:
        ref = self._clock_ref
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj.now
        return 0


#: The process-wide registry every instrumented module declares into.
TRACEPOINTS = TracepointRegistry()


def tracepoint(name: str) -> Tracepoint:
    """Declare a probe on the global registry (the usual entry point)."""
    return TRACEPOINTS.tracepoint(name)


def set_sim_clock(obj) -> None:
    """Register the simulated-time source on the global registry."""
    TRACEPOINTS.set_clock(obj)
