"""Fleet sampling, statistics, and the uptime non-correlation."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    FleetConfig,
    SimulatedServer,
    ServerConfig,
    median,
    pearson,
    percentile,
    run_fleet,
)
from repro.mm.page import AllocSource
from repro.units import MiB


class TestStats:
    def test_pearson_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_pearson_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_pearson_independent_near_zero(self):
        import random
        rng = random.Random(0)
        xs = [rng.random() for _ in range(2000)]
        ys = [rng.random() for _ in range(2000)]
        assert abs(pearson(xs, ys)) < 0.1

    def test_pearson_constant_series(self):
        assert pearson([1, 1, 1], [2, 3, 4]) == 0.0

    def test_pearson_validation(self):
        with pytest.raises(ConfigurationError):
            pearson([1], [1, 2])
        with pytest.raises(ConfigurationError):
            pearson([1], [1])

    def test_percentile_and_median(self):
        vals = [1, 2, 3, 4, 5]
        assert median(vals) == 3
        assert percentile(vals, 0) == 1
        assert percentile(vals, 100) == 5
        assert percentile(vals, 25) == 2

    def test_percentile_validation(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)
        with pytest.raises(ConfigurationError):
            percentile([1], 200)


class TestFleetSampling:
    @pytest.fixture(scope="class")
    def fleet(self):
        config = ServerConfig(mem_bytes=MiB(64), min_uptime_steps=30,
                              max_uptime_steps=200)
        return run_fleet(FleetConfig(n_servers=6, server=config,
                                     base_seed=7))

    def test_scan_count(self, fleet):
        assert len(fleet.scans) == 6

    def test_scans_have_all_granularities(self, fleet):
        for scan in fleet.scans:
            assert set(scan.contiguity) == {"2MB", "4MB", "32MB", "1GB"}

    def test_unmovable_present_on_every_server(self, fleet):
        for scan in fleet.scans:
            assert scan.unmovable["2MB"] > 0

    def test_contiguity_degrades_with_granularity(self, fleet):
        for scan in fleet.scans:
            assert scan.contiguity["2MB"] >= scan.contiguity["32MB"]
            assert scan.contiguity["32MB"] >= scan.contiguity["1GB"]

    def test_networking_dominates_sources(self, fleet):
        breakdown = fleet.source_breakdown()
        top = max(breakdown, key=breakdown.get)
        assert top is AllocSource.NETWORKING

    def test_source_fractions_sum_to_one(self, fleet):
        assert sum(fleet.source_breakdown().values()) == pytest.approx(1.0)

    def test_aggregates_run(self, fleet):
        assert 0 <= fleet.fraction_without_any("1GB") <= 1
        assert 0 <= fleet.median_unmovable("2MB") <= 1

    def test_same_seed_is_deterministic(self):
        config = ServerConfig(mem_bytes=MiB(64), min_uptime_steps=20,
                              max_uptime_steps=40)
        a = SimulatedServer(config, seed=3).run()
        b = SimulatedServer(config, seed=3).run()
        assert a.contiguity == b.contiguity
        assert a.uptime_steps == b.uptime_steps


class TestServerConfigValidation:
    @pytest.mark.parametrize("mem_bytes", [MiB(3), 0, -MiB(64), MiB(2) + 4096])
    def test_mem_bytes_checked_at_construction(self, mem_bytes):
        with pytest.raises(ConfigurationError,
                           match="positive multiple of 2097152 bytes"):
            ServerConfig(mem_bytes=mem_bytes)

    def test_empty_fleet_stays_legal_for_api_callers(self):
        assert run_fleet(FleetConfig(n_servers=0)).scans == []


class TestScanSnapshotRoundTrip:
    """Pin the ``from_snapshot(snapshot()) == scan`` contract — the
    experiment cache and fleet checkpoints both rely on it, including
    the conditional ``failed``/``error`` keys."""

    def _scan(self, **kw):
        from repro.fleet import ServerScan

        base = dict(
            uptime_steps=120, free_frames=4096, free_2m_blocks=3,
            contiguity={"2MB": 0.25, "1GB": 0.0},
            unmovable={"2MB": 0.5, "1GB": 1.0},
            sources={AllocSource.NETWORKING: 7, AllocSource.SLAB: 2},
            vmstat={"pgalloc": 10, "pgfree": 4},
        )
        base.update(kw)
        return ServerScan(**base)

    def test_healthy_scan_round_trips(self):
        from repro.fleet import ServerScan

        scan = self._scan()
        snap = scan.snapshot()
        assert "failed" not in snap and "error" not in snap
        assert ServerScan.from_snapshot(snap) == scan

    def test_failed_and_error_round_trip(self):
        from repro.fleet import ServerScan

        scan = self._scan(free_frames=0, contiguity={}, unmovable={},
                          sources={}, vmstat={}, failed=True,
                          error="worker crashed: boom")
        snap = scan.snapshot()
        assert snap["failed"] is True and snap["error"].endswith("boom")
        rebuilt = ServerScan.from_snapshot(snap)
        assert rebuilt == scan
        assert rebuilt.failed and rebuilt.error == scan.error

    def test_fleet_sample_from_snapshots(self):
        from repro.fleet import FleetSample

        scans = [self._scan(),
                 self._scan(free_frames=0, failed=True, error="x")]
        sample = FleetSample(scans=scans)
        rebuilt = FleetSample.from_snapshots(
            [s.snapshot() for s in scans])
        assert rebuilt == sample
        assert [scan.failed for scan in rebuilt.scans] == [False, True]

    def test_json_round_trip_is_loss_free(self):
        import json

        from repro.fleet import ServerScan

        scan = self._scan()
        snap = json.loads(json.dumps(scan.snapshot()))
        assert ServerScan.from_snapshot(snap) == scan
