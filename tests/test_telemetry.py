"""Unified telemetry: tracepoints, metrics registry, manifests, CLI verbs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import (
    TRACEPOINTS,
    CounterSet,
    Gauge,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    RingBufferSink,
    TraceEvent,
    TracepointRegistry,
    build_manifest,
    format_manifest,
    format_manifest_diff,
    load_manifest,
    manifest_diff,
    read_jsonl,
    tracepoint,
    tracing,
    write_manifest,
)
from repro.telemetry.instruments import HIST_BUCKETS

from conftest import deterministic_view


class _BoomSink:
    """Proves disabled tracepoints never reach the sink layer."""

    def append(self, event):
        raise AssertionError("sink touched while tracepoint disabled")


class TestTracepoints:
    def test_disabled_is_default_and_reaches_no_sink(self):
        reg = TracepointRegistry()
        tp = reg.tracepoint("t.x")
        reg.attach(_BoomSink())
        assert tp.enabled is False
        tp.emit(a=1)  # must not raise: emit re-checks the flag

    def test_enabled_emit_records_fields_and_name(self):
        reg = TracepointRegistry()
        tp = reg.tracepoint("t.x")
        sink = RingBufferSink()
        reg.attach(sink)
        reg.enable("t.*")
        tp.emit(a=1, b="two")
        (event,) = sink.events()
        assert event.name == "t.x"
        assert event.fields == {"a": 1, "b": "two"}

    def test_declare_is_idempotent(self):
        reg = TracepointRegistry()
        assert reg.tracepoint("t.x") is reg.tracepoint("t.x")

    def test_enable_glob_returns_sorted_hits(self):
        reg = TracepointRegistry()
        for name in ("mm.alloc", "mm.free", "fleet.done"):
            reg.tracepoint(name)
        assert reg.enable("mm.*") == ["mm.alloc", "mm.free"]
        assert [tp.name for tp in reg if tp.enabled] == ["mm.alloc",
                                                         "mm.free"]

    def test_sim_clock_stamps_events(self):
        class FakeKernel:
            now = 1234

        reg = TracepointRegistry()
        tp = reg.tracepoint("t.x")
        sink = RingBufferSink()
        reg.attach(sink)
        reg.enable()
        clock = FakeKernel()
        reg.set_clock(clock)
        tp.emit(a=1)
        tp.emit(ts=9, a=2)  # explicit ts wins
        assert [e.ts for e in sink.events()] == [1234, 9]

    def test_clock_is_weak(self):
        class FakeKernel:
            now = 7

        reg = TracepointRegistry()
        reg.set_clock(FakeKernel())  # dies immediately
        assert reg.now() == 0

    def test_tracing_restores_state_and_detaches_sink(self):
        reg = TracepointRegistry()
        a = reg.tracepoint("a")
        b = reg.tracepoint("b")
        b.enabled = True
        with tracing("a", registry=reg) as sink:
            assert a.enabled and b.enabled
            a.emit(x=1)
        assert a.enabled is False
        assert b.enabled is True
        assert sink not in reg.sinks
        assert len(sink.events()) == 1

    def test_global_instrumentation_is_registered(self):
        # Probes register at import time; pull in the instrumented layers.
        import repro.fleet.engine  # noqa: F401
        import repro.kalloc.slab  # noqa: F401
        import repro.mm.kernel  # noqa: F401
        import repro.sim.tlb  # noqa: F401

        for name in ("mm.buddy.alloc", "mm.compact.finish",
                     "mm.reclaim.run", "kalloc.slab.grow",
                     "sim.tlb.walk", "fleet.run.finish"):
            assert TRACEPOINTS.get(name) is not None, name


class TestSinks:
    def test_ring_capacity_and_dropped(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.append(TraceEvent("t", i))
        assert len(sink) == 3
        assert sink.appended == 5
        assert sink.dropped == 2
        assert [e.ts for e in sink.events()] == [2, 3, 4]

    def test_ring_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            RingBufferSink(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [TraceEvent("t.a", 5, {"pfn": 10, "label": "z"}),
                  TraceEvent("t.b", 6, {})]
        with JsonlSink(path) as sink:
            for e in events:
                sink.append(e)
        assert sink.written == 2
        assert read_jsonl(path) == events


class TestCounterSet:
    def test_items_sorted_and_cached(self):
        c = CounterSet()
        c.inc("b")
        c.inc("a", 2)
        first = c.items()
        assert first == [("a", 2), ("b", 1)]
        assert c.items() is first          # cache hit, no re-sort
        c.inc("c")
        assert c.items() is not first      # inc invalidates
        assert c.items() == [("a", 2), ("b", 1), ("c", 1)]

    def test_merge_accepts_counterset_and_dict(self):
        c = CounterSet({"a": 1})
        c.merge(CounterSet({"a": 2, "b": 3}))
        c.merge({"b": 1})
        assert c.snapshot() == {"a": 3, "b": 4}

    def test_delta_only_changed_events(self):
        before = CounterSet({"a": 1, "b": 2})
        after = CounterSet({"a": 4, "b": 2, "c": 1})
        assert after.delta(before) == {"a": 3, "c": 1}
        assert after.delta(before.snapshot()) == {"a": 3, "c": 1}

    def test_vmstat_is_a_counterset_facade(self):
        from repro.mm.vmstat import VmStat

        v = VmStat()
        v.inc("alloc_success", 3)
        assert isinstance(v, CounterSet)
        other = VmStat()
        other.inc("alloc_success")
        assert v.delta(other) == {"alloc_success": 2}


class TestHistogram:
    def test_bucket_edges(self):
        h = Histogram()
        # bucket 0: v < 1; bucket i: [2**(i-1), 2**i)
        assert h.bucket_index(0) == 0
        assert h.bucket_index(0.99) == 0
        assert h.bucket_index(1) == 1
        assert h.bucket_index(2) == 2
        assert h.bucket_index(3) == 2
        assert h.bucket_index(4) == 3
        assert h.bucket_index(2**62) == HIST_BUCKETS - 1
        assert h.bucket_index(2**100) == HIST_BUCKETS - 1

    def test_bucket_bounds_contain_their_values(self):
        for v in (1, 2, 3, 7, 8, 1000, 2**40):
            lo, hi = Histogram.bucket_bounds(Histogram.bucket_index(v))
            assert lo <= v < hi

    def test_observe_snapshot_and_mean(self):
        h = Histogram()
        for v in (1, 2, 3, 10):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["total"] == 16
        assert snap["buckets"] == {"1": 1, "2": 2, "8": 1}
        assert h.mean == 4.0

    def test_merge_is_exact_elementwise(self):
        a, b = Histogram(), Histogram()
        a.observe(5)
        b.observe(5)
        b.observe(100)
        a.merge(b)
        assert a.count == 3
        assert a.snapshot()["buckets"] == {"4": 2, "64": 1}

    def test_buckets_are_plain_ints(self):
        """The cold tier's one instrument: no numpy in the state it
        dumps into manifests."""
        h = Histogram()
        h.observe(7)
        assert type(h.buckets) is list
        assert all(type(n) is int for n in h.buckets)
        json.dumps(h.snapshot())

    def test_percentile_upper_edge(self):
        h = Histogram()
        for _ in range(99):
            h.observe(3)       # bucket [2, 4)
        h.observe(1000)        # bucket [512, 1024)
        assert h.percentile(50) == 4.0
        assert h.percentile(100) == 1024.0
        with pytest.raises(ConfigurationError):
            h.percentile(101)


class ReferenceHistogram:
    """The numpy-backed 64-slot histogram ``Histogram`` replaced, kept
    as the reference its list-backed form must equal exactly."""

    def __init__(self):
        self.buckets = np.zeros(HIST_BUCKETS, dtype=np.int64)
        self.count = 0
        self.total = 0.0

    def observe(self, value):
        self.buckets[Histogram.bucket_index(value)] += 1
        self.count += 1
        self.total += value

    def percentile(self, q):
        if not self.count:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for i, n in enumerate(self.buckets.tolist()):
            seen += n
            if seen >= rank and n:
                return Histogram.bucket_bounds(i)[1]
        return Histogram.bucket_bounds(HIST_BUCKETS - 1)[1]

    def snapshot(self):
        return {
            "count": self.count,
            "total": self.total,
            "buckets": {
                ("<1" if i == 0 else str(1 << (i - 1))):
                    int(self.buckets[i])
                for i in np.flatnonzero(self.buckets).tolist()
            },
        }

    def merge(self, other):
        self.buckets += other.buckets
        self.count += other.count
        self.total += other.total


#: Non-negative observations that land on and around every bucket edge,
#: up to the clamp at ``2**63``, plus sub-1 and ordinary floats.
_edges = st.integers(0, 63).flatmap(
    lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1]))
_values = st.one_of(_edges, st.integers(0, 2**63),
                    st.floats(0, 2.0**63, allow_nan=False))
_quantiles = st.floats(0, 100, allow_nan=False)


def _filled(values):
    new, ref = Histogram(), ReferenceHistogram()
    for v in values:
        new.observe(v)
        ref.observe(v)
    return new, ref


@settings(max_examples=150, deadline=None)
@given(st.lists(_values, max_size=60), st.lists(_values, max_size=60),
       st.lists(_quantiles, max_size=5))
def test_histogram_equals_the_64_slot_reference(left, right, qs):
    """snapshot / percentile / percentiles / merge agree with the
    reference on arbitrary input — byte for byte where they serialise."""
    new, ref = _filled(left)
    other_new, other_ref = _filled(right)
    for pair in ((new, ref), (other_new, other_ref)):
        assert json.dumps(pair[0].snapshot()) == json.dumps(
            pair[1].snapshot())
    new.merge(other_new)
    ref.merge(other_ref)
    assert json.dumps(new.snapshot()) == json.dumps(ref.snapshot())
    assert new.buckets == ref.buckets.tolist()
    for q in (0.0, 50.0, 99.0, 99.9, 100.0, *qs):
        assert new.percentile(q) == ref.percentile(q)
    batch = (50.0, 99.0, 99.9, *qs)
    assert new.percentiles(batch) == [ref.percentile(q) for q in batch]
    # merge must not alias the other histogram's buckets
    other_new.observe(1)
    assert new.buckets == ref.buckets.tolist()


class TestMetricsRegistry:
    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.inc("ev", 2)
        m.gauge("g").set(1.5)
        m.histogram("h").observe(4)
        snap = m.snapshot()
        assert snap["counters"] == {"ev": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("ev")
        b.inc("ev", 2)
        b.gauge("g").set(-9)
        a.gauge("g").set(2)
        b.histogram("h").observe(1)
        a.merge(b)
        assert a.counters["ev"] == 3
        assert a.gauge("g").value == -9   # larger magnitude wins
        assert a.histogram("h").count == 1

    def test_gauge_merge_keeps_larger_magnitude(self):
        g = Gauge(3)
        g.merge(Gauge(-1))
        assert g.value == 3

    def test_protocol_instances(self):
        from repro.fleet import FleetSample
        from repro.sim.tlb import WalkStats

        for obj in (CounterSet(), MetricsRegistry(), WalkStats()):
            assert callable(obj.snapshot), type(obj)
            assert callable(obj.merge), type(obj)
        # A fleet sample snapshots; campaigns are not merged.
        assert callable(FleetSample(scans=[]).snapshot)


class TestWalkStats:
    def test_snapshot_merge(self):
        from repro.sim.tlb import WalkStats

        a = WalkStats(accesses=2, walks=1, walk_cycles=10,
                      translation_cycles=20)
        b = WalkStats(accesses=3, l1_hits=2, walks=1, walk_cycles=5,
                      translation_cycles=10)
        a.merge(b)
        assert a.snapshot() == {
            "accesses": 5, "l1_hits": 2, "l2_hits": 0, "walks": 2,
            "walk_cycles": 15, "translation_cycles": 30,
        }


class TestWorkerEnvValidation:
    def test_non_integer_env_rejected(self, monkeypatch):
        from repro.fleet.engine import WORKERS_ENV, resolve_workers

        monkeypatch.setenv(WORKERS_ENV, "four")
        with pytest.raises(ConfigurationError, match="not an integer"):
            resolve_workers(None)

    def test_negative_env_rejected(self, monkeypatch):
        from repro.fleet.engine import WORKERS_ENV, resolve_workers

        monkeypatch.setenv(WORKERS_ENV, "-2")
        with pytest.raises(ConfigurationError, match=">= 0"):
            resolve_workers(None)


class TestManifests:
    def test_round_trip(self, tmp_path):
        m = build_manifest(kind="test", config={"n": 1}, seed=3,
                           counters={"a": 1})
        path = write_manifest(tmp_path / "m.json", m)
        assert load_manifest(path) == m

    def test_deterministic_view_drops_volatile(self):
        m = build_manifest(kind="test", volatile={"workers": 4})
        assert "volatile" not in deterministic_view(m)
        assert m["volatile"]["workers"] == 4

    def test_diff_counters(self):
        a = build_manifest(kind="t", counters={"x": 1, "same": 5})
        b = build_manifest(kind="t", counters={"x": 4, "same": 5})
        d = manifest_diff(a, b)
        assert d["counters"] == {"x": {"a": 1, "b": 4, "delta": 3}}

    def test_schema_2_has_no_bench_section(self):
        m = build_manifest(kind="t")
        assert m["schema"] == 2
        assert "bench" not in m
        with pytest.raises(TypeError):
            build_manifest(kind="t", bench={})

    def test_schema_1_manifest_still_loads_and_diffs(self, tmp_path):
        """A file written before the ``bench`` section went: it loads,
        prints and diffs, and the section is ignored."""
        old = {**build_manifest(kind="perf", counters={"x": 1}),
               "schema": 1,
               "bench": {"churn": {"ops_per_sec": 100.0}}}
        path = write_manifest(tmp_path / "old.json", old)
        loaded = load_manifest(path)
        text = format_manifest(loaded)
        assert "schema: 1" in text and "churn" not in text
        new = build_manifest(kind="perf", counters={"x": 3})
        diff = manifest_diff(loaded, new)
        assert set(diff) == {"meta", "counters", "aggregates"}
        assert "churn" not in format_manifest_diff(diff)
        assert diff["counters"]["x"]["delta"] == 2


FLEET_KW = dict(n_servers=3, base_seed=11)


def _small_config():
    from repro.fleet import ServerConfig
    from repro.units import MiB

    return ServerConfig(mem_bytes=MiB(64), min_uptime_steps=20,
                        max_uptime_steps=60)


class TestFleetTelemetry:
    def test_manifest_deterministic_across_worker_counts(self):
        from repro.fleet import FleetConfig, run_fleet

        cfg = _small_config()
        serial = run_fleet(FleetConfig(server=cfg, workers=1, **FLEET_KW))
        parallel = run_fleet(FleetConfig(server=cfg, workers=4, **FLEET_KW))
        assert serial.scans == parallel.scans
        assert deterministic_view(serial.manifest) == \
            deterministic_view(parallel.manifest)
        assert serial.manifest["counters"]["alloc_success"] > 0

    def test_tracing_produces_jsonl_and_manifest(self, tmp_path):
        """Tracing a run is scoping it: the events stream to the sink,
        and the manifest the result carries is what gets written."""
        from repro.fleet import FleetConfig, run_fleet

        events_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.json"
        config = FleetConfig(server=_small_config(), workers=1, **FLEET_KW)
        with JsonlSink(events_path) as sink, tracing("*", sink=sink):
            sample = run_fleet(config)
        write_manifest(manifest_path, sample.manifest)
        events = read_jsonl(events_path)
        names = {e.name for e in events}
        assert "fleet.run.start" in names
        assert "mm.buddy.alloc" in names
        manifest = load_manifest(manifest_path)
        assert manifest == sample.manifest
        assert manifest["kind"] == "fleet"
        # Traced and untraced runs produce identical scans and manifests
        # (tracing is observation, not perturbation).
        plain = run_fleet(config)
        assert plain.scans == sample.scans
        assert deterministic_view(plain.manifest) == \
            deterministic_view(manifest)

    def test_series_is_the_per_server_accessor(self):
        """``contiguity_values``/``unmovable_values`` (shimmed since
        PR 2) are gone; ``series(metric, granularity)`` is the one
        spelling."""
        from repro.fleet import FleetConfig, run_fleet

        sample = run_fleet(FleetConfig(server=_small_config(), workers=1,
                                       **FLEET_KW))
        for name in ("contiguity_values", "unmovable_values"):
            with pytest.raises(AttributeError, match=name):
                getattr(sample, name)
        assert sample.series("contiguity", "2MB") == [
            scan.contiguity["2MB"] for scan in sample.scans]
        assert sample.series("unmovable", "2MB") == [
            scan.unmovable["2MB"] for scan in sample.scans]
        with pytest.raises(ConfigurationError):
            sample.series("nope", "2MB")


class TestCliVerbs:
    def _write_stream(self, path):
        events = [TraceEvent("mm.buddy.alloc", 1, {"pfn": 5, "order": 0}),
                  TraceEvent("mm.compact.start", 2, {"target_order": 9}),
                  TraceEvent("mm.buddy.free", 3, {"pfn": 5, "order": 0})]
        with JsonlSink(path) as sink:
            for e in events:
                sink.append(e)

    def test_trace_filters_input_stream(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ev.jsonl"
        self._write_stream(path)
        main(["trace", "--input", str(path), "--match", "mm.buddy.*"])
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "         1  mm.buddy.alloc           order=0 pfn=5",
            "         3  mm.buddy.free            order=0 pfn=5",
        ]

    def test_trace_out_rewrites_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "ev.jsonl"
        dst = tmp_path / "filtered.jsonl"
        self._write_stream(src)
        main(["trace", "--input", str(src), "--match", "mm.compact.*",
              "--out", str(dst)])
        assert read_jsonl(dst) == [
            TraceEvent("mm.compact.start", 2, {"target_order": 9})]

    @pytest.mark.parametrize("flag,value,message", [
        ("--steps", "-3", "step count must be >= 0, got -3"),
        ("--mem-mib", "0", "MiB count must be >= 16, got 0")])
    def test_trace_refuses_a_bad_count(self, flag, value, message, capsys):
        """``--steps -3`` used to run only ``start()`` and exit 0."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["trace", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("service", ["cache-b", "ads"])
    def test_trace_runs_any_registered_service(self, service, capsys):
        """``--service`` takes the registry's kebab-case names, the
        spelling ``--set service=...`` uses, and every registered
        service."""
        from repro.cli import main

        main(["trace", "--service", service, "--steps", "1",
              "--mem-mib", "64", "--match", "workload.step"])
        (line,) = capsys.readouterr().out.splitlines()
        assert "workload.step" in line and "step=1" in line

    def test_trace_unknown_service_lists_the_registry(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["trace", "--service", "nope", "--steps", "1"])
        assert exc.value.code.startswith("repro: unknown service 'nope'")
        for name in ("ads", "cache-a", "cache-b", "ci", "rdma", "web"):
            assert name in exc.value.code

    def test_metrics_single_manifest(self, tmp_path, capsys):
        from repro.cli import main

        m = build_manifest(kind="fleet", seed=7, config={"n_servers": 2},
                           counters={"alloc_success": 10})
        path = write_manifest(tmp_path / "m.json", m)
        main(["metrics", path])
        out = capsys.readouterr().out
        assert "kind: fleet" in out
        assert "seed: 7" in out
        assert "alloc_success" in out

    def test_metrics_diff(self, tmp_path, capsys):
        from repro.cli import main

        a = build_manifest(kind="fleet", seed=1, counters={"x": 1})
        b = build_manifest(kind="fleet", seed=2, counters={"x": 3})
        pa = write_manifest(tmp_path / "a.json", a)
        pb = write_manifest(tmp_path / "b.json", b)
        main(["metrics", pa, pb])
        out = capsys.readouterr().out
        assert "Counter deltas" in out
        assert "+2" in out

    def test_metrics_identical_manifests(self, tmp_path, capsys):
        from repro.cli import main

        m = build_manifest(kind="fleet", seed=1, counters={"x": 1})
        pa = write_manifest(tmp_path / "a.json", m)
        main(["metrics", pa, pa])
        assert "identical" in capsys.readouterr().out

    def test_fleet_verb_writes_artifacts(self, tmp_path, capsys):
        """The survey's CLI form: per-server rows on stdout and the
        cell's manifest at ``--manifest`` (an events stream is the
        Python form's, see ``test_tracing_produces_jsonl_and_manifest``)."""
        from repro.cli import main

        manifest = tmp_path / "run.json"
        main(["experiment", "run", "fleet-survey", "--set", "n_servers=2",
              "--set", "mem_mib=64", "--workers", "1", "--json",
              "--manifest", str(manifest),
              "--cache-dir", str(tmp_path / "cache")])
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)) == 2
        assert f"# run manifest written to {manifest}" in captured.err
        written = load_manifest(manifest)
        assert written["kind"] == "experiment"
        assert written["config"]["experiment"] == "fleet-survey"
        assert written["config"]["params"]["n_servers"] == 2
