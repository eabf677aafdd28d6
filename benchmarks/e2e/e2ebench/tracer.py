"""Benchmark-owned tracing: spans, aggregated taps, self time.

Nothing under ``src/`` carries spans yet, so the traced run measures
each layer from outside: the benchmark opens a span around every call
it makes into a layer, hands the program kernel classes whose public
methods are tapped, and wraps a handful of public functions.  Span
names are ``<layer>.<what>``; a layer's self time is the sum over its
spans of the span's duration minus what its children cover.

Calls that happen tens of thousands of times per item (kernel calls,
``serve_request``) are not stored singly: they are aggregated per
(parent span, name) into a count, a sum and a log-bucket histogram.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: Sub-buckets per octave of the tap histogram: 8 gives +-4.4 %
#: resolution on a percentile, from three integer operations per call.
_SUB_BITS = 3
_SUB = 1 << _SUB_BITS


def bucket_of(ns: int) -> int:
    """Log-bucket index of a duration in nanoseconds."""
    bits = ns.bit_length()
    if bits <= _SUB_BITS:
        return ns
    return (bits << _SUB_BITS) | ((ns >> (bits - 1 - _SUB_BITS)) & (_SUB - 1))


def bucket_mid_ns(index: int) -> float:
    """Midpoint in nanoseconds of bucket *index*."""
    if index < (_SUB_BITS + 1) << _SUB_BITS:
        return float(index)
    bits, sub = index >> _SUB_BITS, index & (_SUB - 1)
    lo = (_SUB + sub) << (bits - 1 - _SUB_BITS)
    width = 1 << (bits - 1 - _SUB_BITS)
    return lo + width / 2.0


class Agg:
    """Count, sum and histogram of one tapped call under one parent."""

    __slots__ = ("count", "sum_ns", "units", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum_ns = 0
        #: Caller-defined work total (e.g. pages returned by bulk calls).
        self.units = 0
        self.buckets: dict[int, int] = {}

    def add(self, ns: int) -> None:
        self.count += 1
        self.sum_ns += ns
        b = bucket_of(ns)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def merge(self, other: "Agg") -> None:
        self.count += other.count
        self.sum_ns += other.sum_ns
        self.units += other.units
        for b, n in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + n

    def percentile_us(self, q: float) -> float:
        """Percentile *q* in microseconds, to bucket resolution."""
        if not self.count:
            return 0.0
        want = self.count * q / 100.0
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= want:
                return bucket_mid_ns(b) / 1e3
        return bucket_mid_ns(max(self.buckets)) / 1e3

    def snapshot(self) -> dict:
        return {"count": self.count, "sum_s": self.sum_ns / 1e9,
                "units": self.units,
                "buckets": {str(b): n for b, n in sorted(self.buckets.items())}}


class Tracer:
    """Spans in memory, written once at the end of the run."""

    enabled = True

    def __init__(self) -> None:
        #: [id, name, parent id or -1, start_ns, end_ns, request id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: (parent span id, name) -> Agg
        self.aggs: dict[tuple[int, str], Agg] = {}
        #: name -> Agg under the currently open span (-1 = no span), so
        #: a tap pays one dict lookup, not a tuple build, per call.
        self._open_aggs: dict[int, dict[str, Agg]] = {-1: {}}
        self.cur: dict[str, Agg] = self._open_aggs[-1]
        #: Depth of tapped kernel calls in flight: a public kernel call
        #: made from inside another one (``alloc_thp`` -> ``alloc_pages``,
        #: reclaim -> ``free_pages``) is work of the outer call.
        self.kernel_depth = 0

    @contextmanager
    def span(self, name: str, req=None):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [span_id, name, parent, time.perf_counter_ns(), 0, req]
        self.spans.append(record)
        self._stack.append(span_id)
        self.cur = self._open_aggs[span_id] = {}
        try:
            yield span_id
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()
            for agg_name, agg in self._open_aggs.pop(span_id).items():
                self.aggs[(span_id, agg_name)] = agg
            self.cur = self._open_aggs[parent]

    def add_span(self, name: str, start_ns: int, end_ns: int, req=None) -> int:
        """Record a finished span under the currently open one (for
        intervals only known after the fact, e.g. between two yields of
        a generator)."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, name, parent, start_ns, end_ns, req])
        return span_id

    def agg(self, name: str) -> Agg:
        """The aggregate for *name* under the currently open span."""
        agg = self.cur.get(name)
        if agg is None:
            agg = self.cur[name] = Agg()
        return agg

    def all_aggs(self) -> dict[tuple[int, str], Agg]:
        """Every aggregate, those under still-open spans included."""
        out = dict(self.aggs)
        for span_id, aggs in self._open_aggs.items():
            for name, agg in aggs.items():
                out[(span_id, name)] = agg
        return out

    # -- wrapping --------------------------------------------------------

    def tap(self, name: str, fn, units=None):
        """*fn* wrapped so each call lands in the ``name`` aggregate.
        *units*, when given, maps the call's result to a work count."""
        tracer = self
        clock = time.perf_counter_ns

        def tapped(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.agg(name).add(dt)
            if units is not None:
                tracer.agg(name).units += units(result)
            return result

        return tapped

    def spanned(self, name: str, fn):
        """*fn* wrapped so each call is a stored span (for calls that
        are few and may have children of their own)."""
        tracer = self

        def spanned(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return spanned

    def kernel_tap(self, name: str, fn, units=None):
        """Tap for a public kernel method: only the outermost call is
        timed, nested public calls run untimed inside it.  A call that
        raises (an allocation failure) is not recorded."""
        tracer = self
        clock = time.perf_counter_ns

        def tapped(self, *args, **kwargs):
            if tracer.kernel_depth:
                return fn(self, *args, **kwargs)
            tracer.kernel_depth = 1
            t0 = clock()
            try:
                result = fn(self, *args, **kwargs)
            except BaseException:
                tracer.kernel_depth = 0
                raise
            dt = clock() - t0
            tracer.kernel_depth = 0
            # Agg.add and bucket_of inlined: ~100k calls per round.
            agg = tracer.cur.get(name)
            if agg is None:
                agg = tracer.cur[name] = Agg()
            agg.count += 1
            agg.sum_ns += dt
            bits = dt.bit_length()
            bucket = (bits << _SUB_BITS) | (
                (dt >> (bits - 1 - _SUB_BITS)) & (_SUB - 1)) if bits > _SUB_BITS else dt
            buckets = agg.buckets
            buckets[bucket] = buckets.get(bucket, 0) + 1
            if units is not None:
                agg.units += units(result)
            return result

        return tapped

    # -- reading ---------------------------------------------------------

    def total(self, name: str) -> Agg:
        """The aggregate for *name* summed over every parent."""
        out = Agg()
        for (_parent, agg_name), agg in self.all_aggs().items():
            if agg_name == name:
                out.merge(agg)
        return out

    def span_durations_s(self, name: str) -> list[float]:
        return [(s[4] - s[3]) / 1e9 for s in self.spans if s[1] == name]

    def self_times(self, roots: set[int] | None = None) -> dict[str, float]:
        """Seconds of self time per span/aggregate name, over every
        span or over the subtrees of the spans in *roots*."""
        return self_times(self.spans, self.all_aggs(), roots)

    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = {
            "spans": [{"id": s[0], "name": s[1], "parent": s[2],
                       "start_ns": s[3], "end_ns": s[4], "request": s[5]}
                      for s in self.spans],
            "aggregates": [{"parent": parent, "name": name, **agg.snapshot()}
                           for (parent, name), agg
                           in sorted(self.all_aggs().items())],
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


class NullTracer:
    """The untraced run's tracer: spans cost one generator frame and
    record nothing; nothing is ever wrapped."""

    enabled = False

    @contextmanager
    def span(self, name: str, req=None):
        yield -1


def self_times(spans, aggs, roots: set[int] | None = None) -> dict[str, float]:
    """Self time per name: each span's duration minus the part its
    child spans and child aggregates cover; aggregates are leaves.
    With *roots*, only those spans' subtrees are counted."""
    inside = [roots is None] * len(spans)
    covered = [0] * len(spans)
    for span_id, _name, parent, start, end, _req in spans:
        # Parents open before their children, so ids ascend down a tree.
        if (roots is not None and span_id in roots) or (
                parent >= 0 and inside[parent]):
            inside[span_id] = True
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (parent, name), agg in aggs.items():
        if parent >= 0:
            covered[parent] += agg.sum_ns
        if inside[parent] if parent >= 0 else roots is None:
            out[name] = out.get(name, 0.0) + agg.sum_ns / 1e9
    for span_id, name, _parent, start, end, _req in spans:
        if inside[span_id]:
            out[name] = out.get(name, 0.0) + (
                end - start - covered[span_id]) / 1e9
    return out


def layer_times(by_name: dict[str, float]) -> dict[str, float]:
    """Fold per-name self times into per-layer self times (the layer is
    the part of the name before the first dot)."""
    out: dict[str, float] = {}
    for name, seconds in by_name.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


#: Public kernel methods the driver and the kalloc glue call.
KERNEL_METHODS = ("alloc_pages", "alloc_pages_bulk", "free_pages",
                  "pin_pages", "unpin_pages", "advance", "alloc_thp",
                  "alloc_gigapage", "free_frames")


def tapped_kernel_class(base: type, tracer: Tracer, layer: str) -> type:
    """A subclass of kernel class *base* whose constructor and public
    methods report to *tracer* as ``<layer>.boot`` / ``<layer>.<method>``.
    Simulation behaviour is untouched: every method defers to *base*."""
    namespace = {
        name: tracer.kernel_tap(
            f"{layer}.{name}", getattr(base, name),
            units=len if name == "alloc_pages_bulk" else None)
        for name in KERNEL_METHODS
    }
    namespace["__init__"] = tracer.kernel_tap(f"{layer}.boot", base.__init__)
    # Same `name` class attribute and module-level identity for pickling
    # are not needed: tapped kernels never cross a process boundary.
    return type(f"Tapped{base.__name__}", (base,), namespace)


@contextmanager
def patched(owner, attr: str, wrapper):
    """Temporarily replace ``owner.attr`` with ``wrapper(original)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)
