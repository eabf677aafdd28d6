"""Supervised fleet engine: worker resolution, retries, bit-identity."""

import dataclasses
import os

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.fleet import (
    FleetConfig,
    FleetSample,
    ServerConfig,
    check_survey_fit,
    estimate_survey_bytes,
    iter_fleet_scans,
    resolve_workers,
    run_fleet,
    run_fleet_scans,
    survey_fleet,
)
from repro.fleet.engine import (
    WORKERS_ENV,
    WorkerOutcome,
    _resolve_chunk,
    _scan_payload,
)
from repro.units import MiB

from conftest import deterministic_view

SMALL = ServerConfig(mem_bytes=MiB(64), min_uptime_steps=20,
                     max_uptime_steps=60)

#: Fast variant for the wider fleets (64 servers) in the manifest
#: bit-identity tests.
TINY = ServerConfig(mem_bytes=MiB(64), min_uptime_steps=5,
                    max_uptime_steps=15)


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_env_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers(None) == 1

    def test_defaults_to_cpu_count(self, monkeypatch):
        import os
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == max(1, os.cpu_count() or 1)

    def test_explicit_negative_rejected(self):
        """Explicit and env-var spellings validate identically: a
        negative count is a configuration error either way."""
        with pytest.raises(ConfigurationError):
            resolve_workers(-4)

    def test_env_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "-3")
        with pytest.raises(ConfigurationError):
            resolve_workers(None)

    def test_zero_still_means_serial(self):
        assert resolve_workers(0) == 1


class TestRunFleet:
    def test_serial_fallback_matches_direct_loop(self):
        from repro.fleet import SimulatedServer

        scans = run_fleet_scans(3, config=SMALL, base_seed=9, workers=1)
        direct = [SimulatedServer(SMALL, seed=9 + i).run()
                  for i in range(3)]
        assert scans == direct

    def test_parallel_bit_identical_to_serial(self):
        """The acceptance property: scans from the process pool equal the
        serial path field-for-field, in index order."""
        serial = run_fleet_scans(4, config=SMALL, base_seed=3, workers=1)
        parallel = run_fleet_scans(4, config=SMALL, base_seed=3, workers=2,
                             chunk_size=1)
        assert parallel == serial

    def test_run_fleet_front_door_workers_param(self):
        a = run_fleet(FleetConfig(n_servers=2, server=SMALL,
                                  base_seed=1, workers=1))
        b = run_fleet(FleetConfig(n_servers=2, server=SMALL,
                                  base_seed=1, workers=2))
        assert a.scans == b.scans

    def test_zero_servers(self):
        assert run_fleet_scans(0, config=SMALL, workers=1) == []
        assert run_fleet(FleetConfig(n_servers=0, server=SMALL,
                                     workers=1)).scans == []


CRASH_ONCE = FaultPlan(
    "crash-once", (FaultSpec("fleet.worker.crash", max_fires=1),))
CRASH_ALWAYS = FaultPlan(
    "crash-always", (FaultSpec("fleet.worker.crash"),))


class TestSupervision:
    def test_payload_failure_carries_context(self):
        """Satellite: a worker failure names the server index, seed, and
        attempt without needing the worker's stdout."""
        cfg = dataclasses.replace(SMALL, fault_plan=CRASH_ALWAYS)
        outcome = _scan_payload((5, cfg, 14, 1))
        assert isinstance(outcome, WorkerOutcome)
        assert not outcome.ok
        assert "server 5" in outcome.error
        assert "seed 14" in outcome.error
        assert "attempt 1" in outcome.error
        assert "WorkerCrashError" in outcome.error

    def test_crashed_server_retried_to_identical_scan(self):
        """Retried payloads replay the same seed: a crash-then-retry run
        is bit-identical to a clean run of the same seed."""
        clean = run_fleet_scans(3, config=SMALL, base_seed=7, workers=1)
        cfg = dataclasses.replace(SMALL, fault_plan=CRASH_ONCE)
        for workers in (1, 2):
            chaotic = run_fleet_scans(3, config=cfg, base_seed=7,
                                workers=workers, backoff_base=0.0)
            assert chaotic == clean
            assert not any(s.failed for s in chaotic)

    def test_exhausted_retries_degrade_not_abort(self):
        """Every index comes back even when every attempt crashes; the
        placeholders are marked failed with the final error attached."""
        cfg = dataclasses.replace(SMALL, fault_plan=CRASH_ALWAYS)
        for workers in (1, 2):
            scans = run_fleet_scans(3, config=cfg, base_seed=0, workers=workers,
                              max_retries=1, backoff_base=0.0)
            assert len(scans) == 3
            assert all(s.failed for s in scans)
            assert all("WorkerCrashError" in s.error for s in scans)
            assert "server 2" in scans[2].error

    def test_degraded_sample_aggregates_skip_failures(self):
        cfg = dataclasses.replace(SMALL, fault_plan=CRASH_ALWAYS)
        healthy = run_fleet_scans(2, config=SMALL, base_seed=0, workers=1)
        broken = run_fleet_scans(1, config=cfg, base_seed=50, workers=1,
                           max_retries=0, backoff_base=0.0)
        sample = FleetSample(scans=healthy + broken)
        assert [i for i, scan in enumerate(sample.scans)
                if scan.failed] == [2]
        assert len(sample.completed_scans()) == 2
        assert len(sample.series("contiguity", "2MB")) == 2
        snap = sample.snapshot()
        assert snap["n_servers"] == 3
        assert snap["n_failed_servers"] == 1

    def test_chunk_size_still_accepted(self):
        scans = run_fleet_scans(2, config=SMALL, base_seed=1, workers=2,
                          chunk_size=1)
        assert scans == run_fleet_scans(2, config=SMALL, base_seed=1, workers=1)

    def test_chunked_run_bit_identical(self):
        """Multi-server chunks change only the IPC batching, never the
        scans: a chunked parallel run equals the serial loop."""
        serial = run_fleet_scans(6, config=TINY, base_seed=11, workers=1)
        chunked = run_fleet_scans(6, config=TINY, base_seed=11, workers=2,
                                  chunk_size=3)
        assert chunked == serial

    def test_chunked_run_survives_crash_faults(self):
        """Retries travel as singletons even when the first attempt was
        chunked, so crash-then-retry stays bit-identical to clean."""
        clean = run_fleet_scans(6, config=TINY, base_seed=7, workers=1)
        cfg = dataclasses.replace(TINY, fault_plan=CRASH_ONCE)
        chaotic = run_fleet_scans(6, config=cfg, base_seed=7, workers=2,
                                  chunk_size=4, backoff_base=0.0)
        assert chaotic == clean
        assert not any(s.failed for s in chaotic)


class TestChunkResolution:
    def test_timeout_forces_singletons(self):
        assert _resolve_chunk(8, 100, 4, server_timeout=1.0) == 1

    def test_explicit_validated(self):
        assert _resolve_chunk(8, 100, 4, server_timeout=None) == 8
        with pytest.raises(ConfigurationError):
            _resolve_chunk(0, 100, 4, server_timeout=None)

    def test_auto_at_least_one(self):
        assert _resolve_chunk(None, 2, 4, server_timeout=None) >= 1

    def test_config_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(chunk_size=0)


class TestStreaming:
    def test_iter_yields_every_index_once(self):
        seen = dict(iter_fleet_scans(5, config=TINY, base_seed=2,
                                     workers=1))
        assert sorted(seen) == [0, 1, 2, 3, 4]
        assert seen == dict(enumerate(
            run_fleet_scans(5, config=TINY, base_seed=2, workers=1)))

    def test_survey_matches_run_fleet_snapshot(self):
        cfg = FleetConfig(n_servers=8, server=TINY, base_seed=5, workers=1)
        sample = run_fleet(cfg)
        summary = survey_fleet(cfg)
        assert summary.snapshot() == sample.snapshot()
        assert (summary.vmstat_totals().snapshot()
                == sample.vmstat_totals().snapshot())

    def test_survey_parallel_chunked_identical(self):
        cfg = FleetConfig(n_servers=8, server=TINY, base_seed=5, workers=1)
        par = dataclasses.replace(cfg, workers=2, chunk_size=3)
        assert survey_fleet(par).snapshot() == survey_fleet(cfg).snapshot()

    def test_survey_aggregates_degraded_servers(self):
        cfg = FleetConfig(
            n_servers=3, workers=1, max_retries=0, backoff_base=0.0,
            server=dataclasses.replace(TINY, fault_plan=CRASH_ALWAYS))
        summary = survey_fleet(cfg)
        assert summary.n_servers == 3
        assert summary.n_failed_servers == 3
        assert summary.snapshot() == run_fleet(cfg).snapshot()


    def test_sample_snapshot_byte_equal_with_loadgen_and_a_failure(self):
        """Both front doors aggregate through one fold: on a
        loadgen-bearing fleet where exactly one server exhausts its
        retry budget, ``FleetSample.snapshot()`` (index order) and a
        parallel ``survey_fleet`` (completion order) serialise to the
        same bytes — keys, order, and every float."""
        import json

        from repro.workloads import LoadgenConfig

        plan = FaultPlan("flaky", (FaultSpec("fleet.worker.crash",
                                             rate=0.3),))
        base_seed = next(b for b in range(1000) if sum(
            plan.should_crash(b + i, 0) for i in range(4)) == 1)
        cfg = FleetConfig(
            n_servers=4, base_seed=base_seed, workers=1, max_retries=0,
            backoff_base=0.0,
            server=dataclasses.replace(
                TINY, fault_plan=plan,
                loadgen=LoadgenConfig(rate_rps=150_000.0, duration_s=5e-4)))
        sample = run_fleet(cfg)
        assert sum(scan.failed for scan in sample.scans) == 1
        snap = sample.snapshot()
        assert snap["n_failed_servers"] == 1
        assert snap["latency.all.servers"] == 3
        survey = survey_fleet(dataclasses.replace(cfg, workers=2,
                                                  chunk_size=1))
        assert json.dumps(snap) == json.dumps(survey.snapshot())


class TestManifestBitIdentity:
    def test_64_server_manifest_identical_workers_1_vs_8(self):
        """Satellite: the manifest's deterministic view from a 64-server
        campaign is byte-identical for workers=1 and workers=8."""
        import json

        from repro.telemetry import TelemetryConfig

        cfg = FleetConfig(n_servers=64, server=TINY, base_seed=42,
                          workers=1, telemetry=TelemetryConfig())
        m1 = run_fleet(cfg).manifest
        m8 = run_fleet(dataclasses.replace(cfg, workers=8)).manifest
        assert (json.dumps(deterministic_view(m1), sort_keys=True)
                == json.dumps(deterministic_view(m8), sort_keys=True))

    def test_survey_manifest_matches_run_fleet(self):
        from repro.telemetry import TelemetryConfig

        cfg = FleetConfig(n_servers=8, server=TINY, base_seed=6,
                          workers=1, telemetry=TelemetryConfig())
        assert (deterministic_view(survey_fleet(cfg).manifest)
                == deterministic_view(run_fleet(cfg).manifest))


class TestSurveyFit:
    def test_small_survey_fits(self):
        need = check_survey_fit(4, MiB(64), workers=1,
                                available_bytes=1 << 30)
        assert 0 < need < (1 << 30)

    def test_oversized_survey_rejected_with_typed_error(self):
        with pytest.raises(ConfigurationError, match="available"):
            check_survey_fit(10**6, MiB(512), workers=4,
                             available_bytes=1 << 30)

    @pytest.fixture
    def no_room(self, monkeypatch):
        """64 MiB available, and any server that starts fails the test."""
        from repro.fleet import engine

        def started(*args, **kwargs):
            raise AssertionError("the survey started")

        monkeypatch.setattr(engine, "_available_memory_bytes",
                            lambda: MiB(64))
        monkeypatch.setattr(engine, "_scan_payload", started)
        monkeypatch.setattr(engine, "_scan_chunk", started)

    REFUSED = ("fleet survey of 5000 servers x 4096 MiB needs ~",
               "only 64 MiB is available; reduce n_servers, mem_mib, or "
               "workers")

    @pytest.mark.parametrize("plan", [[], ["--plan", "ci-smoke"]],
                             ids=["fleet", "chaos"])
    def test_cli_refuses_oversized_survey_before_any_worker(
            self, no_room, tmp_path, plan):
        """The survey is sized where every survey passes, so the spec
        form of a clean or a chaos survey is refused before any server
        runs or any row is cached."""
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["experiment", "run", "fleet-survey", *plan,
                  "--set", "n_servers=5000", "--set", "mem_mib=4096",
                  "--workers", "1", "--cache-dir", str(tmp_path)])
        head, tail = self.REFUSED
        assert info.value.code.startswith("repro: " + head)
        assert info.value.code.endswith(tail)
        assert not os.listdir(tmp_path)

    def test_run_fleet_refuses_oversized_survey_before_any_worker(
            self, no_room, tmp_path):
        ckdir = tmp_path / "ck"
        with pytest.raises(ConfigurationError) as info:
            run_fleet(FleetConfig(
                n_servers=5000, server=ServerConfig(mem_bytes=MiB(4096)),
                workers=1), checkpoint_every=1, checkpoint_dir=str(ckdir))
        head, tail = self.REFUSED
        assert str(info.value).startswith(head)
        assert str(info.value).endswith(tail)
        assert not ckdir.exists()

    def test_estimate_scales_with_workers_not_servers(self):
        one = estimate_survey_bytes(1000, MiB(64), workers=1)
        four = estimate_survey_bytes(1000, MiB(64), workers=4)
        huge = estimate_survey_bytes(2000, MiB(64), workers=1)
        assert four > one
        # Doubling the fleet only adds per-scan slack, not per-server
        # simulator footprint.
        assert huge - one < estimate_survey_bytes(1, MiB(64), workers=1)


class TestEmptyFleetAggregates:
    def test_fraction_without_any_empty(self):
        sample = FleetSample(scans=[])
        assert sample.fraction_without_any("2MB") == 0.0
        assert sample.fraction_without_any("1GB") == 0.0

    def test_source_breakdown_empty(self):
        assert FleetSample(scans=[]).source_breakdown() == {}
