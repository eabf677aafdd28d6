"""Open-loop trace-driven load generation (§5.3 tail latency).

Covers the tentpole contracts:

* trace shapes validate eagerly and live in a kebab-case registry;
* arrival/service sampling is a pure function of (shape, rate, seed);
* percentile extraction is exact (nearest-rank over raw samples) and
  the log2-histogram batch path agrees with the scalar path;
* ``RequestLoop`` seeding is construction-order independent and arming
  migrations never perturbs the page-access stream;
* ``run_loadgen`` is bit-identical run to run, and the noncacheable
  design degrades p99 the way §5.3 reports;
* six short bursts simulate what ``tests/fixtures/loadgen_golden.json``
  holds (regenerate it only after a deliberate change to a simulated
  number: ``PYTHONPATH=src python tests/test_tracegen.py``).
"""

import dataclasses
import json
import math
import os
import random
import sys

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ResultCache, run_experiment
from repro.telemetry.instruments import HIST_BUCKETS, Histogram
from repro.workloads.interference import MEMCACHED, NGINX
from repro.workloads.requestloop import RequestLoop
from repro.workloads.tracegen import (
    AZURE_FAAS,
    DIURNAL_WEB,
    LatencyRecorder,
    LoadgenConfig,
    STEADY,
    TraceShape,
    get_shape,
    register_shape,
    run_loadgen,
    sample_arrivals,
    sample_service,
)
from repro.core.hwext.metadata import AccessMode


class TestTraceShape:
    def test_builtin_shapes_registered(self):
        for name in ("steady", "diurnal-web", "azure-faas", "spiky-cache"):
            assert get_shape(name).name == name
        assert get_shape("azure-faas") is AZURE_FAAS

    def test_unknown_shape_lists_known(self):
        with pytest.raises(ConfigurationError, match="steady"):
            get_shape("no-such-shape")

    def test_register_rejects_duplicates_unless_replace(self):
        shape = TraceShape(name="test-dup")
        register_shape(shape)
        with pytest.raises(ConfigurationError, match="test-dup"):
            register_shape(TraceShape(name="test-dup"))
        register_shape(TraceShape(name="test-dup"), replace=True)

    def test_name_must_be_kebab(self):
        for bad in ("", "CamelCase", "has_underscore", "-leading", "a--b"):
            with pytest.raises(ConfigurationError):
                TraceShape(name=bad)

    def test_validation_is_eager(self):
        with pytest.raises(ConfigurationError):
            TraceShape(name="x", interarrival="weibull")
        with pytest.raises(ConfigurationError):
            TraceShape(name="x", interarrival_cv=0.0)
        with pytest.raises(ConfigurationError):
            TraceShape(name="x", service="pareto", service_alpha=1.0)
        with pytest.raises(ConfigurationError):
            TraceShape(name="x", diurnal_amplitude=1.0)
        with pytest.raises(ConfigurationError):
            TraceShape(name="x", service_mean_instructions=8)
        with pytest.raises(ConfigurationError):
            TraceShape(name="x", service_cap_instructions=100,
                       service_mean_instructions=200)

    def test_shapes_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            STEADY.name = "other"


class TestSampling:
    def test_arrivals_deterministic_per_seed(self):
        a1, s1 = sample_arrivals(AZURE_FAAS, 1e6, 1e-3, seed=7)
        a2, s2 = sample_arrivals(AZURE_FAAS, 1e6, 1e-3, seed=7)
        assert a1 == a2 and s1 == s2
        a3, _ = sample_arrivals(AZURE_FAAS, 1e6, 1e-3, seed=8)
        assert a1 != a3

    def test_arrivals_monotone_in_span(self):
        arrivals, _ = sample_arrivals(DIURNAL_WEB, 5e5, 1e-3, seed=1)
        assert arrivals == sorted(arrivals)
        assert all(0.0 < t < 1e-3 for t in arrivals)

    def test_arrival_count_tracks_rate(self):
        low, _ = sample_arrivals(STEADY, 2e5, 1e-3, seed=3)
        high, _ = sample_arrivals(STEADY, 2e6, 1e-3, seed=3)
        assert 5 * len(low) < len(high)

    def test_spiky_shape_actually_spikes(self):
        _, spikes = sample_arrivals(AZURE_FAAS, 1e6, 5e-3, seed=2)
        assert spikes > 0
        _, none = sample_arrivals(STEADY, 1e6, 5e-3, seed=2)
        assert none == 0

    def test_service_bounds_and_determinism(self):
        draws = sample_service(AZURE_FAAS, 500, seed=4)
        assert draws == sample_service(AZURE_FAAS, 500, seed=4)
        cap = AZURE_FAAS.service_cap_instructions
        assert all(16 <= d <= cap for d in draws)
        # Pareto 1.9 service: the cap must actually bind sometimes at
        # this sample size, or the tail went missing.
        assert max(draws) > AZURE_FAAS.service_mean_instructions * 4

    def test_service_mean_near_configured_mean(self):
        draws = sample_service(STEADY, 4000, seed=5)
        mean = sum(draws) / len(draws)
        assert 0.8 * STEADY.service_mean_instructions < mean \
            < 1.2 * STEADY.service_mean_instructions


class TestLatencyRecorder:
    def test_exact_nearest_rank_percentiles(self):
        rec = LatencyRecorder()
        for v in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
            rec.observe(v)
        # Nearest-rank: p50 of 10 samples -> rank ceil(5) = 5th -> 50.
        assert rec.percentile(50.0) == 50.0
        assert rec.percentile(90.0) == 90.0
        assert rec.percentile(99.0) == 100.0
        assert rec.percentile(100.0) == 100.0
        assert rec.percentile(0.0) == 10.0
        assert rec.percentiles((50.0, 99.0)) == [50.0, 100.0]

    def test_exact_boundary_between_ranks(self):
        rec = LatencyRecorder()
        for v in (1, 2, 3, 4):
            rec.observe(v)
        # q exactly on a rank boundary picks that rank, not the next.
        assert rec.percentile(25.0) == 1.0
        assert rec.percentile(50.0) == 2.0
        assert rec.percentile(75.0) == 3.0
        # Just past the boundary moves up.
        assert rec.percentile(50.1) == 3.0

    def test_empty_recorder(self):
        rec = LatencyRecorder()
        assert rec.percentile(99.0) == 0.0
        assert rec.percentiles() == [0.0, 0.0, 0.0]
        assert rec.mean == 0.0
        summary = rec.summary(2.0)
        assert summary["requests"] == 0
        assert summary["p999_us"] == 0.0

    def test_p999_on_small_samples_is_max(self):
        rec = LatencyRecorder()
        for v in (5, 7, 9):
            rec.observe(v)
        # ceil(0.999 * 3) = 3 -> the maximum, never out of range.
        assert rec.percentile(99.9) == 9.0

    def test_out_of_range_q_rejected(self):
        rec = LatencyRecorder()
        rec.observe(1)
        with pytest.raises(ConfigurationError):
            rec.percentile(101.0)
        with pytest.raises(ConfigurationError):
            rec.percentiles((50.0, -1.0))

    def test_summary_units(self):
        rec = LatencyRecorder()
        rec.observe(2000)  # 2000 cycles at 2 GHz = 1 µs
        summary = rec.summary(2.0)
        assert summary == {"requests": 1, "mean_us": 1.0, "p50_us": 1.0,
                           "p99_us": 1.0, "p999_us": 1.0, "max_us": 1.0}


class TestHistogramPercentiles:
    def test_batch_matches_scalar(self):
        rng = random.Random("hist-batch")
        for _ in range(50):
            h = Histogram()
            for _ in range(rng.randrange(1, 400)):
                h.observe(rng.randrange(0, 1 << 20))
            qs = tuple(sorted(rng.uniform(0, 100) for _ in range(5)))
            assert h.percentiles(qs) == [h.percentile(q) for q in qs]

    def test_batch_unsorted_qs(self):
        h = Histogram()
        for v in (1, 2, 4, 8, 1000):
            h.observe(v)
        qs = (99.0, 1.0, 50.0)
        assert h.percentiles(qs) == [h.percentile(q) for q in qs]

    def test_exact_bucket_boundaries(self):
        h = Histogram()
        h.observe(8)  # bucket [8, 16): upper edge 16
        assert h.percentile(50.0) == 16.0
        h.observe(7)  # bucket [4, 8): upper edge 8
        assert h.percentile(25.0) == 8.0

    def test_empty_histogram(self):
        h = Histogram()
        assert h.percentile(99.0) == 0.0
        assert h.percentiles() == [0.0, 0.0, 0.0]

    def test_overflow_bucket(self):
        h = Histogram()
        h.observe(float(1 << 70))
        assert h.percentile(50.0) == Histogram.bucket_bounds(
            HIST_BUCKETS - 1)[1]


class TestRequestLoopSeeding:
    def _serve_n(self, loop, n=40):
        return [loop.serve_request() for _ in range(n)]

    def test_equal_seed_loops_bit_identical(self):
        a = RequestLoop(NGINX, seed=9)
        b = RequestLoop(NGINX, seed=9)
        assert self._serve_n(a) == self._serve_n(b)

    def test_construction_order_independent(self):
        # Interleave construction and serving with an unrelated loop:
        # named per-purpose streams mean the bystander cannot perturb it.
        a = RequestLoop(NGINX, seed=9)
        times_a = self._serve_n(a)
        noise = RequestLoop(MEMCACHED, seed=9)
        self._serve_n(noise, 10)
        b = RequestLoop(NGINX, seed=9)
        assert self._serve_n(b) == times_a

    def test_migration_draws_do_not_perturb_page_stream(self):
        quiet = RequestLoop(NGINX, seed=3)
        base = self._serve_n(quiet)
        noisy = RequestLoop(NGINX, seed=3)
        schedule = noisy.make_schedule(migrations_per_second=1e9)
        with_mig = [noisy.serve_request(schedule=schedule)
                    for _ in range(40)]
        assert schedule.windows_seen > 0
        # Same page sequence underneath: removing the penalty cycles
        # from the noisy run must recover the quiet run exactly.
        assert all(m >= q for m, q in zip(with_mig, base))
        p = noisy.params
        penalty = (p.l3_latency - p.l1_latency) * (1.0 - noisy.core.overlap)
        for m, q in zip(with_mig, base):
            extra = m - q
            n_hits = extra / penalty
            assert abs(n_hits - round(n_hits)) < 1e-6

    def test_schedule_counts_missed_windows(self):
        loop = RequestLoop(NGINX, seed=0)
        schedule = loop.make_schedule(migrations_per_second=1e6)
        gap = schedule.cycles_between
        schedule.advance(gap * 5.5)
        assert schedule.windows_seen == 5
        assert schedule.next_start > gap * 5.5

    def test_cacheable_pays_first_touch_only(self):
        loop = RequestLoop(NGINX, seed=0)
        schedule = loop.make_schedule(migrations_per_second=1e6)
        schedule.advance(schedule.next_start)
        page = schedule.migrating_page
        now = schedule.window_end - 1.0
        assert schedule.pays_penalty(now, page, AccessMode.CACHEABLE)
        assert not schedule.pays_penalty(now, page, AccessMode.CACHEABLE)
        assert schedule.pays_penalty(now, page, AccessMode.NONCACHEABLE)
        assert not schedule.pays_penalty(schedule.window_end, page,
                                         AccessMode.NONCACHEABLE)


FAST = dict(rate_rps=500_000.0, duration_s=5e-4, buffer_pages=8)


class TestRunLoadgen:
    def test_bit_identical_across_runs(self):
        cfg = LoadgenConfig(seed=6, **FAST)
        a = run_loadgen(cfg)
        b = run_loadgen(cfg)
        assert a.rows() == b.rows()
        assert a.manifest["aggregates"] == b.manifest["aggregates"]

    def test_seed_changes_rows(self):
        a = run_loadgen(LoadgenConfig(seed=6, **FAST))
        b = run_loadgen(LoadgenConfig(seed=7, **FAST))
        assert a.rows() != b.rows()

    def test_open_loop_queueing_is_real(self):
        # Saturating rate: latency must blow past any single service
        # time, because requests queue behind the busy core.
        r = run_loadgen(LoadgenConfig(shape="steady", rate_rps=1e7,
                                      duration_s=2e-4, design="none",
                                      seed=1))
        assert r.requests > 100
        all_row = r.summary()["all"]
        assert all_row["p99_us"] > 10 * all_row["p50_us"] or \
            all_row["p99_us"] > 1.0

    def test_noncacheable_p99_ordering_matches_s53(self):
        p99 = {}
        for design in ("noncacheable", "cacheable", "none"):
            r = run_loadgen(LoadgenConfig(design=design, seed=0, **FAST))
            p99[design] = r.summary()["all"]["p99_us"]
        assert p99["noncacheable"] > p99["cacheable"] >= p99["none"]

    def test_migration_class_split(self):
        r = run_loadgen(LoadgenConfig(design="noncacheable", seed=2,
                                      **FAST))
        s = r.summary()
        assert s["all"]["requests"] == (s["migration"]["requests"]
                                        + s["quiet"]["requests"])
        assert s["migration"]["requests"] > 0
        assert r.windows_seen > 0

    def test_design_none_has_no_migration_class(self):
        r = run_loadgen(LoadgenConfig(design="none", seed=2, **FAST))
        s = r.summary()
        assert s["migration"]["requests"] == 0
        assert r.windows_seen == 0

    def test_manifest_is_built_on_first_read(self):
        """A run nobody asks for its manifest sorts no sample for it."""
        r = run_loadgen(LoadgenConfig(seed=1, **FAST))
        assert "manifest" not in vars(r)
        assert r.manifest is r.manifest

    def test_manifest_kind_and_aggregates(self):
        r = run_loadgen(LoadgenConfig(seed=1, **FAST))
        assert r.manifest["kind"] == "loadgen"
        agg = r.manifest["aggregates"]
        assert "all.p99_us" in agg and "achieved_rps" in agg
        assert "loadgen.latency.all" in r.manifest["metrics"]["histograms"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            LoadgenConfig(design="sometimes")
        with pytest.raises(ConfigurationError):
            LoadgenConfig(app="postgres")
        with pytest.raises(ConfigurationError):
            LoadgenConfig(buffer_pages=4)
        with pytest.raises(ConfigurationError):
            LoadgenConfig(shape="unregistered-shape")

    @pytest.mark.parametrize("field", ["rate_rps", "duration_s",
                                       "migrations_per_second"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_is_refused(self, field, value):
        """NaN fails ``<= 0`` and ``> max_requests`` alike: the
        generator used to sample arrivals forever.  (A spec's ``--set``
        refuses it earlier, by parameter name.)"""
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be finite, got {value}$"):
            LoadgenConfig(**{field: float(value)})

    def test_max_requests_guard(self):
        with pytest.raises(ConfigurationError, match="max_requests"):
            run_loadgen(LoadgenConfig(rate_rps=1e9, duration_s=1e-2))


class PerInstructionLoop(RequestLoop):
    """Reference: ``serve_request`` as it was before ``TimingCore.retire``
    — one issue slot added per compute instruction, nothing hoisted."""

    def serve_request(self, mode=AccessMode.NONCACHEABLE, schedule=None,
                      instructions=None):
        core = self.core
        p = self.params
        start = core.stats.cycles
        if instructions is None:
            n_instr = self.instructions_per_request
            accesses = self.accesses_per_request
        else:
            n_instr = instructions
            accesses = max(1, int(n_instr * self.app.buffer_access_intensity))
        for _ in range(n_instr - accesses):
            core.stats.cycles += 1.0 / p.issue_width
            core.stats.instructions += 1
        base_vaddr = 0x10_0000_0000
        rng = self.rng
        for _ in range(accesses):
            if rng.random() < self.hot_weight:
                page = rng.randrange(self.hot_pages)
            else:
                page = rng.randrange(self.buffer_pages)
            now = core.stats.cycles
            vaddr = base_vaddr + page * 4096 + rng.randrange(64) * 64
            if schedule is not None:
                schedule.advance(now)
                if schedule.pays_penalty(now, page, mode):
                    core.execute(vaddr)
                    penalty = (p.l3_latency - p.l1_latency) * (
                        1.0 - core.overlap)
                    core.stats.cycles += penalty
                    core.stats.data_cycles += penalty
                    continue
            core.execute(vaddr)
        return core.stats.cycles - start


def _burst(monkeypatch, loop_cls, config):
    """Run one burst on *loop_cls*; returns everything it simulated, as
    JSON holds it: rows, manifest counters, histograms and aggregates,
    and the core's cycle, walk and per-array hit/miss counts."""
    from repro.workloads import tracegen

    built = []

    def build(*args, **kwargs):
        built.append(loop_cls(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(tracegen, "RequestLoop", build)
    result = run_loadgen(config)
    core, = (loop.core for loop in built)
    tlb = core.tlb
    manifest = result.manifest
    arrays = (tlb.l1, tlb.l2, tlb.l1_1g, core.l1, core.l2, *core.llc.slices)
    return json.loads(json.dumps({
        "result": {"requests": result.requests,
                   "windows_seen": result.windows_seen,
                   "spikes": result.spikes, "rows": result.rows()},
        **{key: manifest[key]
           for key in ("counters", "metrics", "aggregates")},
        "core": dataclasses.asdict(core.stats),
        "walk": tlb.stats.snapshot(),
        "hits_misses": {a.label: [a.hits, a.misses] for a in arrays}}))


class TestRetireDifferential:
    """Retiring compute as a count changes no simulated number."""

    @pytest.mark.parametrize("seed", [0, 6, 29])
    @pytest.mark.parametrize("app", ["nginx", "memcached"])
    @pytest.mark.parametrize("design", ["noncacheable", "cacheable", "none"])
    def test_burst_matches_per_instruction_reference(
            self, monkeypatch, design, app, seed):
        config = LoadgenConfig(design=design, app=app, seed=seed, **FAST)
        real = _burst(monkeypatch, RequestLoop, config)
        reference = _burst(monkeypatch, PerInstructionLoop, config)
        assert real == reference
        assert real["result"]["requests"] > 100
        # ``windows_seen`` is the schedule's own count.
        assert (real["result"]["windows_seen"] > 0) == (design != "none")

    def test_closed_loop_matches_reference(self):
        real = RequestLoop(MEMCACHED, seed=4).run(
            300, migrations_per_second=2e6)
        reference = PerInstructionLoop(MEMCACHED, seed=4).run(
            300, migrations_per_second=2e6)
        assert real == reference and real.migrations_seen > 0


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "fixtures", "loadgen_golden.json")
GOLDEN_CELLS = [(app, design) for app in ("nginx", "memcached")
                for design in ("noncacheable", "cacheable", "none")]


def _golden_config(app, design):
    return LoadgenConfig(app=app, design=design, seed=6, **FAST)


class TestLoadgenGolden:
    """The differentials above run old and new serving code over the
    same ``sim``; the committed golden pins the numbers themselves."""

    @pytest.mark.parametrize("app,design", GOLDEN_CELLS)
    def test_burst_matches_committed_golden(self, monkeypatch, app,
                                            design):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert (_burst(monkeypatch, RequestLoop, _golden_config(app, design))
                == golden[f"{app}/{design}"])


class TestFleetTail:
    """A fleet survey runs no load burst: the tail-latency experiment is
    its own spec (``tail-latency-interference``)."""

    def _config(self, workers):
        from repro.fleet import FleetConfig, ServerConfig
        from repro.units import MiB

        server = ServerConfig(mem_bytes=MiB(64), min_uptime_steps=10,
                              max_uptime_steps=20)
        return FleetConfig(n_servers=3, server=server, base_seed=21,
                           workers=workers)

    def test_worker_count_invisible_in_snapshots(self):
        from repro.fleet import run_fleet

        a = run_fleet(self._config(workers=1)).snapshot()
        b = run_fleet(self._config(workers=3)).snapshot()
        assert a == b

    def test_loadgen_free_snapshots_unchanged(self):
        from repro.fleet import run_fleet

        sample = run_fleet(self._config(workers=1))
        assert not any(k.startswith("latency.") for k in sample.snapshot())
        for scan in sample.scans:
            assert "latency" not in scan.snapshot()
            assert not any(k.startswith("loadgen.") for k in scan.vmstat)


class TestTailLatencyExperiment:
    OVERRIDES = {"duration_ms": 0.5, "rate_krps": 500}

    def test_rows_identical_across_worker_counts(self, tmp_path):
        a = run_experiment("tail-latency-interference",
                           overrides=self.OVERRIDES, workers=1,
                           cache=ResultCache(str(tmp_path / "a")))
        b = run_experiment("tail-latency-interference",
                           overrides=self.OVERRIDES, workers=3,
                           cache=ResultCache(str(tmp_path / "b")))
        assert not a.cached and not b.cached
        assert a.rows == b.rows
        assert a.key == b.key  # workers never enter the cache key

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fresh = run_experiment("tail-latency-interference",
                               overrides=self.OVERRIDES, cache=cache)
        hit = run_experiment("tail-latency-interference",
                             overrides=self.OVERRIDES, cache=cache)
        assert not fresh.cached and hit.cached
        assert hit.rows == fresh.rows
        assert "p99" in hit.report()

    def test_report_covers_all_classes(self, tmp_path):
        result = run_experiment("tail-latency-interference",
                                overrides=self.OVERRIDES,
                                cache=ResultCache(str(tmp_path)))
        text = result.report()
        for needle in ("all", "migration", "quiet", "p999"):
            assert needle in text


def regenerate() -> int:
    with pytest.MonkeyPatch.context() as mp:
        golden = {f"{app}/{design}": _burst(mp, RequestLoop,
                                            _golden_config(app, design))
                  for app, design in GOLDEN_CELLS}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
