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

Events are :class:`TraceEvent` records stamped with *simulated* time: a
kernel registers itself as the clock (:func:`set_sim_clock`) and every
event emitted without an explicit ``ts`` reads the kernel's ``now``.
Sinks are pluggable: :class:`RingBufferSink` keeps the last N events in
memory (the ftrace ring buffer), :class:`JsonlSink` streams them to a
file one JSON object per line (the format ``repro trace`` dumps and
filters).
"""

from __future__ import annotations

import json
import weakref
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from ..errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One typed trace record.

    Attributes:
        name: the tracepoint's dotted name (e.g. ``mm.buddy.alloc``).
        ts: simulated-time timestamp (kernel ticks; 0 when no clock is
            registered).
        fields: event payload — JSON-serialisable scalars only.
    """

    name: str
    ts: int
    fields: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """One-line JSON rendering (the JSONL interchange format)."""
        return json.dumps(
            {"name": self.name, "ts": self.ts, "fields": self.fields},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        obj = json.loads(line)
        return cls(name=obj["name"], ts=int(obj.get("ts", 0)),
                   fields=dict(obj.get("fields", {})))


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
        event = TraceEvent(self.name, ts, fields)
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


@contextmanager
def tracing(*patterns: str, sink=None, registry: TracepointRegistry | None = None):
    """Enable tracing for a ``with`` block and restore prior state after.

    Yields the sink collecting events (a fresh :class:`RingBufferSink`
    unless one is passed).  Enablement and sink attachment are restored
    exactly, so nested/overlapping scopes compose.
    """
    registry = registry or TRACEPOINTS
    sink = RingBufferSink() if sink is None else sink
    saved = {tp.name: tp.enabled for tp in registry}
    registry.attach(sink)
    registry.enable(*patterns)
    try:
        yield sink
    finally:
        registry.detach(sink)
        for tp in registry:
            tp.enabled = saved.get(tp.name, False)


class RingBufferSink:
    """Keeps the most recent *capacity* events (ftrace ring buffer)."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        #: Total events ever appended; ``appended - len(self)`` = dropped.
        self.appended = 0

    def append(self, event: TraceEvent) -> None:
        self.appended += 1
        self._buf.append(event)

    @property
    def dropped(self) -> int:
        return self.appended - len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buf)

    def events(self) -> list[TraceEvent]:
        return list(self._buf)

    def clear(self) -> None:
        self._buf.clear()
        self.appended = 0


class JsonlSink:
    """Streams events to a file as JSON lines (``repro trace`` input)."""

    def __init__(self, path) -> None:
        self.path = str(path)
        # A live event stream, not a durable artifact: readers tail it
        # while the run is in flight, so staging + os.replace would
        # defeat the point.
        self._fh = open(self.path, "w")  # simlint: disable=SL010
        self.written = 0

    def append(self, event: TraceEvent) -> None:
        self._fh.write(event.to_json() + "\n")
        self.written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path) -> list[TraceEvent]:
    """Load an event stream written by :class:`JsonlSink`; a missing
    file or a line that is not an event is a :class:`ConfigurationError`
    naming it."""
    out = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(TraceEvent.from_json(line))
                except (ValueError, KeyError, TypeError,
                        AttributeError) as exc:
                    raise ConfigurationError(
                        f"{path}:{lineno}: not a trace event "
                        f"({exc!r})") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read event stream {path}: {exc}") from exc
    return out
