"""Metrics: counters, gauges, log2 histograms.

Everything here speaks one protocol — :class:`Snapshotable` —
``snapshot() -> dict`` for a point-in-time machine-readable view and
``merge(other)`` for combining measurements from independent runs (the
parallel fleet merges per-server counters this way).  A
:class:`MetricsRegistry` groups named instruments behind the same
surface plus ``to_jsonl()`` for interchange.

:class:`CounterSet` is the primitive under
:class:`repro.mm.vmstat.VmStat`; keeping it here lets the fleet and the
benchmarks aggregate kernel counters without importing ``mm``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import Protocol, runtime_checkable

from ..errors import ConfigurationError


@runtime_checkable
class Snapshotable(Protocol):
    """The uniform stats surface every collector implements."""

    def snapshot(self) -> dict: ...

    def merge(self, other) -> None: ...


class CounterSet:
    """Named monotonic event counters (the ``/proc/vmstat`` shape).

    The sorted ``items()`` view is cached and invalidated on ``inc`` —
    tests and reports read it far more often than the hot paths bump it.
    """

    __slots__ = ("_counts", "_items_cache")

    def __init__(self, counts: dict[str, int] | None = None) -> None:
        self._counts: dict[str, int] = dict(counts) if counts else {}
        self._items_cache: list[tuple[str, int]] | None = None

    def inc(self, event: str, n: int = 1) -> None:
        """Add *n* occurrences of *event*."""
        counts = self._counts
        counts[event] = counts.get(event, 0) + n
        self._items_cache = None

    def __getitem__(self, event: str) -> int:
        return self._counts.get(event, 0)

    def __contains__(self, event: str) -> bool:
        return event in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def items(self) -> list[tuple[str, int]]:
        """All (event, count) pairs sorted by event name.

        Cached between ``inc`` calls; treat the returned list as
        read-only.
        """
        cache = self._items_cache
        if cache is None:
            cache = self._items_cache = sorted(self._counts.items())
        return cache

    def snapshot(self) -> dict[str, int]:
        """A copy of the current counts."""
        return dict(self._counts)

    def merge(self, other: "CounterSet | dict[str, int]") -> None:
        """Add another collector's counts into this one."""
        theirs = other.snapshot() if isinstance(other, CounterSet) else other
        counts = self._counts
        for k, v in theirs.items():
            counts[k] = counts.get(k, 0) + v
        self._items_cache = None

    def delta(self, since: "CounterSet | dict[str, int]") -> dict[str, int]:
        """Counts accumulated since an earlier snapshot (or CounterSet);
        only changed events appear."""
        base = since.snapshot() if isinstance(since, CounterSet) else since
        return {
            k: v - base.get(k, 0)
            for k, v in self._counts.items()
            if v != base.get(k, 0)
        }

    def reset(self) -> None:
        self._counts.clear()
        self._items_cache = None

    def to_jsonl(self) -> str:
        """One JSON line per counter, name-sorted."""
        return "".join(
            json.dumps({"counter": k, "value": v}) + "\n"
            for k, v in self.items())


class Gauge:
    """A last-value-wins instrument (free frames, region size, ...)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> dict:
        return {"value": self.value}

    def merge(self, other: "Gauge") -> None:
        # Gauges are point-in-time; merging keeps the larger magnitude
        # reading (independent runs have no meaningful sum).
        if abs(other.value) > abs(self.value):
            self.value = other.value


#: Histogram bucket count: bucket *i* (i >= 1) holds values in
#: ``[2**(i-1), 2**i)``; bucket 0 holds values < 1.  63 doubling buckets
#: cover the full int64 range, so edges never need configuring.
HIST_BUCKETS = 64


class Histogram:
    """Fixed log2-bucket histogram over a plain ``list[int]``.

    Values are bucketed by ``int(v).bit_length()``: bucket 0 collects
    ``v < 1``, bucket *i* the half-open range ``[2**(i-1), 2**i)``.
    Fixed buckets make merge exact (element-wise add) and keep
    ``observe`` branch-free.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets = [0] * HIST_BUCKETS
        self.count = 0
        self.total = 0.0

    @staticmethod
    def bucket_index(value: float) -> int:
        if value < 1:
            return 0
        return min(HIST_BUCKETS - 1, int(value).bit_length())

    @staticmethod
    def bucket_bounds(index: int) -> tuple[float, float]:
        """The half-open ``[lo, hi)`` range bucket *index* collects."""
        if index == 0:
            return (float("-inf"), 1.0)
        return (float(1 << (index - 1)), float(1 << index))

    def observe(self, value: float) -> None:
        self.buckets[self.bucket_index(value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile: the upper edge of the bucket holding
        the q-th sample (exact to within one doubling)."""
        return self.percentiles((q,))[0]

    def percentiles(self, qs: tuple[float, ...] = (50.0, 99.0, 99.9)
                    ) -> list[float]:
        """Batch :meth:`percentile`: one pass over the buckets for all
        ranks (tail-latency reports ask for p50/p99/p999 together)."""
        for q in qs:
            if not 0 <= q <= 100:
                raise ConfigurationError(f"q={q} outside [0, 100]")
        if not self.count:
            return [0.0 for _ in qs]
        order = sorted(range(len(qs)), key=lambda k: qs[k])
        out = [0.0] * len(qs)
        counts = self.buckets
        seen = 0
        i = 0
        for k in order:
            rank = qs[k] / 100.0 * self.count
            while i < HIST_BUCKETS and not (seen + counts[i] >= rank
                                            and counts[i]):
                seen += counts[i]
                i += 1
            out[k] = self.bucket_bounds(min(i, HIST_BUCKETS - 1))[1]
        return out

    def snapshot(self) -> dict:
        """Counts keyed by bucket lower edge (non-empty buckets only)."""
        return {
            "count": self.count,
            "total": self.total,
            "buckets": {
                ("<1" if i == 0 else str(1 << (i - 1))): n
                for i, n in enumerate(self.buckets) if n
            },
        }

    def merge(self, other: "Histogram") -> None:
        self.buckets = [a + b for a, b in zip(self.buckets, other.buckets)]
        self.count += other.count
        self.total += other.total


class MetricsRegistry:
    """Named counters, gauges, and histograms in one place.

    Instruments are created on first reference (``registry.gauge("x")``)
    so call sites need no registration ceremony.  The whole registry is
    :class:`Snapshotable`; ``merge`` combines same-named instruments,
    which is how per-worker measurements fold into one run record.
    """

    def __init__(self) -> None:
        self.counters = CounterSet()
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors -------------------------------------------

    def inc(self, event: str, n: int = 1) -> None:
        self.counters.inc(event, n)

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # -- uniform surface -------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "counters": self.counters.snapshot(),
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.snapshot()
                           for k, h in sorted(self._histograms.items())},
        }

    def merge(self, other: "MetricsRegistry") -> None:
        self.counters.merge(other.counters)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)

    def to_jsonl(self) -> str:
        """Counters, then gauges, then histograms — one JSON line each."""
        lines = [self.counters.to_jsonl()]
        for k, g in sorted(self._gauges.items()):
            lines.append(json.dumps({"gauge": k, "value": g.value}) + "\n")
        for k, h in sorted(self._histograms.items()):
            lines.append(json.dumps(
                {"histogram": k, **h.snapshot()}, sort_keys=True) + "\n")
        return "".join(lines)

    def reset(self) -> None:
        self.counters.reset()
        self._gauges.clear()
        self._histograms.clear()
