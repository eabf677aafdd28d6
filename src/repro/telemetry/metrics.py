"""Metrics: counters, and the registry of named instruments.

Everything here speaks one surface —
``snapshot() -> dict`` for a point-in-time machine-readable view and
``merge(other)`` for combining measurements from independent runs (the
parallel fleet merges per-server counters this way).  A
:class:`MetricsRegistry` groups named instruments behind the same
surface; its gauges and histograms are
:mod:`repro.telemetry.instruments`', loaded the first time a run asks
for one (a warm ``scenario run`` only counts).

:class:`CounterSet` is the primitive under
:class:`repro.mm.vmstat.VmStat`; keeping it here lets the fleet and the
benchmarks aggregate kernel counters without importing ``mm``.
"""

from __future__ import annotations

from collections.abc import Iterator


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


class MetricsRegistry:
    """Named counters, gauges, and histograms in one place.

    Instruments are created on first reference (``registry.gauge("x")``)
    so call sites need no registration ceremony.  The whole registry is
    snapshotable; ``merge`` combines same-named instruments,
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
            from .instruments import Gauge

            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            from .instruments import Histogram

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

    def reset(self) -> None:
        self.counters.reset()
        self._gauges.clear()
        self._histograms.clear()
