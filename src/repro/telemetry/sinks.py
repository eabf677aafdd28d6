"""Trace events, their sinks, and the :func:`tracing` scope.

An enabled :class:`~repro.telemetry.events.Tracepoint` builds a
:class:`TraceEvent` and hands it to every attached sink:
:class:`RingBufferSink` keeps the last N events in memory (the ftrace
ring buffer), :class:`JsonlSink` streams them to a file one JSON object
per line (the format ``repro trace`` dumps and filters, read back by
:func:`read_jsonl`).  Only a traced run, ``repro trace`` and the tests
load this module; the probes themselves are
:mod:`repro.telemetry.events`'.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .events import TRACEPOINTS, TracepointRegistry


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
