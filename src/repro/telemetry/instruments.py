"""Gauges and log2 histograms: the instruments a
:class:`~repro.telemetry.metrics.MetricsRegistry` creates on first
reference, with the same ``snapshot()`` / ``merge()`` surface."""

from __future__ import annotations

from ..errors import ConfigurationError


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
