"""Allocation-trace recording and replay.

Science-grade kernel comparison needs *identical* inputs: record the
allocation event stream a workload produced once, then replay it verbatim
against any kernel.  The paper's A/B infrastructure serves the same
purpose with live traffic mirroring (§4); here the trace file is the
mirror.

Events are logical, not physical: ``alloc`` records order/source/
migratetype/pinned and assigns a trace-local id; ``free``/``pin``/
``unpin`` refer to that id; ``advance`` carries simulated time.  A bulk
allocation is recorded as the ``alloc`` of each page it returned;
``thp`` and ``gigapage`` are attempts, with ``obj`` -1 when the
recording kernel fell back or raised.  Replay maps ids to whatever
handles the target kernel returns, so the same trace drives kernels with
totally different placement decisions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

from ..errors import (
    ConfigurationError,
    ContiguityError,
    OutOfMemoryError,
    ReproError,
)
from ..mm.page import AllocSource, MigrateType

#: Trace format version.  2 added the ``thp`` and ``gigapage`` ops;
#: version-1 files hold a subset of the ops and still load.
TRACE_VERSION = 2


@dataclass
class TraceEvent:
    """One logical allocation event."""

    op: str     # alloc | free | pin | unpin | advance | thp | gigapage
    obj: int = -1           # trace-local object id (alloc assigns)
    order: int = 0
    source: int = 0
    migratetype: int | None = None
    pinned: bool = False
    reclaimable: bool = False
    dt: int = 0             # for advance

    def to_json(self) -> str:
        payload = {k: v for k, v in self.__dict__.items()
                   if v not in (None,)}
        return json.dumps(payload, separators=(",", ":"))


class TraceRecorder:
    """Wraps a kernel, logging every call it forwards.

    Use it exactly like a kernel facade for the operations it records
    (every call that allocates, frees, pins or advances time);
    everything else is delegated untouched.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.events: list[TraceEvent] = []
        # Keyed by the handle itself (identity hash) so trace ids are
        # dense sequence numbers with no address in sight.
        self._ids: dict[object, int] = {}
        self._next = 0

    def _record(self, op, handle, source=0, migratetype=None, **fields):
        """Log an allocating *op*; *handle* gets the next trace id, or
        -1 when the kernel produced no handle."""
        obj = -1
        if handle is not None:
            obj = self._ids[handle] = self._next
            self._next += 1
        self.events.append(TraceEvent(
            op=op, obj=obj, source=int(source),
            migratetype=None if migratetype is None else int(migratetype),
            **fields))
        return handle

    def alloc_pages(self, order: int = 0,
                    source: AllocSource = AllocSource.USER,
                    migratetype: MigrateType | None = None,
                    pinned: bool = False, reclaimable: bool = False,
                    **kwargs):
        handle = self.kernel.alloc_pages(
            order=order, source=source, migratetype=migratetype,
            pinned=pinned, reclaimable=reclaimable, **kwargs)
        return self._record("alloc", handle, source, migratetype,
                            order=order, pinned=pinned,
                            reclaimable=reclaimable)

    def alloc_pages_bulk(self, count: int,
                         source: AllocSource = AllocSource.USER,
                         migratetype: MigrateType | None = None,
                         reclaimable: bool = False):
        handles = self.kernel.alloc_pages_bulk(
            count, source=source, migratetype=migratetype,
            reclaimable=reclaimable)
        for handle in handles:
            self._record("alloc", handle, source, migratetype,
                         reclaimable=reclaimable)
        return handles

    def alloc_thp(self, source: AllocSource = AllocSource.USER,
                  reclaimable: bool = False):
        return self._record(
            "thp", self.kernel.alloc_thp(source, reclaimable), source,
            reclaimable=reclaimable)

    def alloc_gigapage(self):
        try:
            return self._record("gigapage", self.kernel.alloc_gigapage())
        except ContiguityError:
            self._record("gigapage", None)
            raise

    def free_pages(self, handle) -> None:
        obj = self._ids.pop(handle, None)
        if obj is None:
            raise ReproError("freeing a handle the recorder never saw")
        self.kernel.free_pages(handle)
        self.events.append(TraceEvent(op="free", obj=obj))

    def pin_pages(self, handle) -> None:
        self.kernel.pin_pages(handle)
        self.events.append(TraceEvent(op="pin",
                                      obj=self._ids[handle]))

    def unpin_pages(self, handle) -> None:
        self.kernel.unpin_pages(handle)
        self.events.append(TraceEvent(op="unpin",
                                      obj=self._ids[handle]))

    def advance(self, dt: int = 1000) -> None:
        self.kernel.advance(dt)
        self.events.append(TraceEvent(op="advance", dt=dt))

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    # ------------------------------------------------------------------

    def save(self, fh: IO[str]) -> int:
        """Write the trace as JSON lines; returns events written."""
        fh.write(json.dumps({"version": TRACE_VERSION,
                             "events": len(self.events)}) + "\n")
        for event in self.events:
            fh.write(event.to_json() + "\n")
        return len(self.events)


@dataclass
class ReplayResult:
    """Outcome of replaying a trace on one kernel."""

    events: int = 0
    alloc_failures: int = 0
    live_objects: dict[int, object] = field(default_factory=dict)


def _trace_line(number: int, line: str) -> dict:
    """One trace line as a JSON object, or ConfigurationError naming
    its line *number*."""
    try:
        value = json.loads(line)
    except (ValueError, RecursionError):
        value = None
    if type(value) is not dict:
        raise ConfigurationError(f"trace line {number}: not a JSON object")
    return value


def load_trace(fh: IO[str]) -> list[TraceEvent]:
    """Read a trace written by :meth:`TraceRecorder.save`.

    Raises:
        ConfigurationError: naming the first line that is not a JSON
            object, an unsupported header version, or an event with no
            ``op`` or a key :class:`TraceEvent` does not have.
    """
    header = _trace_line(1, fh.readline())
    if header.get("version") not in (1, TRACE_VERSION):
        raise ConfigurationError(
            f"unsupported trace version {header.get('version')!r:.40}")
    keys = TraceEvent.__dataclass_fields__.keys()
    events = []
    for number, line in enumerate(fh, 2):
        if not line.strip():
            continue
        event = _trace_line(number, line)
        if "op" not in event or not keys >= event.keys():
            raise ConfigurationError(
                f"trace line {number}: event keys {sorted(event)!r:.80} "
                f"are not a subset of {sorted(keys)} with an 'op'")
        events.append(TraceEvent(**event))
    return events


def replay(events: list[TraceEvent], kernel,
           tolerate_oom: bool = True) -> ReplayResult:
    """Replay a recorded event stream against *kernel*.

    Allocation failures are tolerated by default (a smaller or more
    fragmented target may OOM where the recording kernel did not): the
    failed object simply never exists, and its later events are skipped —
    the comparison then includes the failure count itself.  A ``thp`` or
    ``gigapage`` attempt is made whatever it recorded, because a failed
    attempt compacts and reclaims too; a huge page the recording never
    got is handed straight back.
    """
    result = ReplayResult()
    for event in events:
        result.events += 1
        if event.op == "advance":
            kernel.advance(event.dt)
            continue
        if event.op == "alloc":
            mt = (None if event.migratetype is None
                  else MigrateType(event.migratetype))
            try:
                handle = kernel.alloc_pages(
                    order=event.order,
                    source=AllocSource(event.source),
                    migratetype=mt,
                    pinned=event.pinned,
                    reclaimable=event.reclaimable)
            except OutOfMemoryError:
                if not tolerate_oom:
                    raise
                result.alloc_failures += 1
                continue
            result.live_objects[event.obj] = handle
            continue
        if event.op in ("thp", "gigapage"):
            try:
                handle = (kernel.alloc_gigapage() if event.op == "gigapage"
                          else kernel.alloc_thp(AllocSource(event.source),
                                                event.reclaimable))
            except ContiguityError:
                handle = None
            if event.obj < 0:
                if handle is not None:
                    kernel.free_pages(handle)
            elif handle is None:
                result.alloc_failures += 1
            else:
                result.live_objects[event.obj] = handle
            continue
        handle = result.live_objects.get(event.obj)
        if handle is None or handle.freed:
            continue  # object never materialised (or reclaimed)
        if event.op == "free":
            if handle.pinned:
                kernel.unpin_pages(handle)
            kernel.free_pages(handle)
            del result.live_objects[event.obj]
        elif event.op == "pin":
            kernel.pin_pages(handle)
        elif event.op == "unpin":
            kernel.unpin_pages(handle)
        else:
            raise ConfigurationError(f"unknown trace op {event.op!r}")
    return result
