"""A kernel wrapper that records every allocating call it forwards.

The oracle behind the driver's call-stream goldens
(``fixtures/driver_callstream.json``): wrap a kernel, run a workload
through it, and hash :attr:`TraceRecorder.events` as JSON lines.  Events
are logical, not physical: ``alloc`` records order/source/migratetype/
pinned and assigns a trace-local id; ``free``/``pin``/``unpin`` refer to
that id; ``advance`` carries simulated time.  A bulk allocation is
recorded as the ``alloc`` of each page it returned; ``thp`` and
``gigapage`` are attempts, with ``obj`` -1 when the kernel fell back or
raised.  A change to any of this changes every golden digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ContiguityError, ReproError
from repro.mm.page import AllocSource, MigrateType


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
