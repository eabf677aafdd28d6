"""Span-tree self time, aggregates and the kernel tap's guard."""

import pytest

from e2ebench.tracer import (Agg, Tracer, bucket_mid_ns, bucket_of,
                             layer_times, self_times, tapped_kernel_class)

MS = 1_000_000


def test_self_time_is_duration_minus_what_children_cover():
    # root 0-100 ms; child a 10-40; grandchild 20-30; child b 50-90.
    spans = [
        [0, "bench.round", -1, 0, 100 * MS, None],
        [1, "workloads.run", 0, 10 * MS, 40 * MS, None],
        [2, "analysis.scan", 1, 20 * MS, 30 * MS, None],
        [3, "workloads.run", 0, 50 * MS, 90 * MS, None],
    ]
    agg = Agg()
    agg.add(5 * MS)
    agg.add(15 * MS)                       # 20 ms of kernel calls under span 3
    by_name = self_times(spans, {(3, "mm.alloc_pages"): agg})
    assert by_name["bench.round"] == pytest.approx(0.030)
    assert by_name["workloads.run"] == pytest.approx(0.020 + 0.020)
    assert by_name["analysis.scan"] == pytest.approx(0.010)
    assert by_name["mm.alloc_pages"] == pytest.approx(0.020)
    layers = layer_times(by_name)
    assert sum(layers.values()) == pytest.approx(0.100)   # adds up to root
    assert layers["workloads"] == pytest.approx(0.040)


def test_self_time_can_be_restricted_to_root_subtrees():
    spans = [
        [0, "bench.round", -1, 0, 10 * MS, None],
        [1, "mm.x", 0, 0, 4 * MS, None],
        [2, "workloads.check", -1, 20 * MS, 30 * MS, None],   # outside
    ]
    outside = Agg()
    outside.add(MS)
    by_name = self_times(spans, {(2, "mm.alloc_pages"): outside}, roots={0})
    assert by_name == {"bench.round": pytest.approx(0.006),
                       "mm.x": pytest.approx(0.004)}


def test_tracer_nests_spans_and_scopes_aggregates_to_the_open_span():
    tr = Tracer()
    with tr.span("bench.round") as root:
        with tr.span("workloads.run", req={"round": 0}) as run:
            tr.agg("mm.alloc_pages").add(100)
        tr.agg("mm.alloc_pages").add(300)
    assert tr.spans[run][2] == root and tr.spans[run][5] == {"round": 0}
    assert tr.aggs[(run, "mm.alloc_pages")].count == 1
    assert tr.aggs[(root, "mm.alloc_pages")].sum_ns == 300
    assert tr.total("mm.alloc_pages").count == 2


def test_histogram_buckets_are_monotonic_and_tight():
    last = -1
    for ns in (1, 7, 8, 9, 100, 1000, 4321, 10**6, 10**9):
        b = bucket_of(ns)
        assert b > last
        last = b
        assert abs(bucket_mid_ns(b) - ns) / ns < 0.07
    agg = Agg()
    for ns in range(1000, 2000):
        agg.add(ns)
    assert agg.percentile_us(50) == pytest.approx(1.5, rel=0.07)


class FakeKernel:
    """The nesting of the real kernels: ``alloc_thp`` allocates through
    ``alloc_pages``; ``advance`` reclaims through ``free_pages``."""

    def __init__(self, config=None):
        self.log = []

    def alloc_pages(self, order=0):
        self.log.append("alloc_pages")
        if order < 0:
            raise MemoryError("no memory")
        return object()

    def alloc_pages_bulk(self, count):
        return [self.alloc_pages() for _ in range(count)]

    def free_pages(self, handle):
        self.log.append("free_pages")

    def pin_pages(self, handle):
        pass

    def unpin_pages(self, handle):
        pass

    def advance(self, dt=1000):
        self.free_pages(None)
        self.free_pages(None)

    def alloc_thp(self):
        return self.alloc_pages(9)

    def alloc_gigapage(self):
        return self.alloc_pages(18)

    def free_frames(self):
        return 0


def test_kernel_tap_counts_nested_public_calls_once():
    tr = Tracer()
    kernel = tapped_kernel_class(FakeKernel, tr, "mm")()
    kernel.alloc_thp()              # -> alloc_pages, nested
    kernel.advance()                # -> free_pages x2, nested
    kernel.alloc_pages()
    handles = kernel.alloc_pages_bulk(5)    # -> alloc_pages x5, nested
    # The simulation still ran every nested call ...
    assert kernel.log.count("alloc_pages") == 7
    assert kernel.log.count("free_pages") == 2
    # ... but only outermost calls were timed.
    counts = {name: agg.count for (_p, name), agg in tr.all_aggs().items()}
    assert counts == {"mm.boot": 1, "mm.alloc_thp": 1, "mm.advance": 1,
                      "mm.alloc_pages": 1, "mm.alloc_pages_bulk": 1}
    assert tr.total("mm.alloc_pages_bulk").units == len(handles) == 5
    assert tr.kernel_depth == 0


def test_kernel_tap_releases_the_guard_when_a_call_raises():
    tr = Tracer()
    kernel = tapped_kernel_class(FakeKernel, tr, "mm")()
    with pytest.raises(MemoryError):
        kernel.alloc_pages(-1)
    assert tr.kernel_depth == 0
    kernel.alloc_pages()
    assert tr.total("mm.alloc_pages").count == 1    # the failure is not timed
