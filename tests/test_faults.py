"""Deterministic fault injection: plans, injector, degradation paths.

Covers the acceptance criteria of the robustness issue: seeded plans are
declarative and validated, disabled hooks cost one attribute load plus a
branch, injected faults degrade gracefully at every layer (migration
retries, watermark rescue, hwpoison offlining, supervised fleet), and
the same seed + plan always produces bit-identical results.
"""

from __future__ import annotations

import json
import pickle

import pytest

from conftest import deterministic_view, make_contiguitas, make_linux

from repro.errors import (
    ConfigurationError,
    MigrationError,
    OutOfMemoryError,
)
from repro.faults import (
    FAULTS,
    KNOWN_SITES,
    NAMED_PLANS,
    FaultPlan,
    FaultSite,
    FaultSpec,
    fault_site,
    injecting,
)
from repro.fleet import FleetConfig, ServerConfig, run_fleet
from repro.mm import AllocSource, vmstat as ev
from repro.mm.migrate import MIGRATE_MAX_ATTEMPTS, migrate_with_retry
from repro.units import MiB, PAGEBLOCK_FRAMES


def plan_of(site: str, **kwargs) -> FaultPlan:
    return FaultPlan("test", (FaultSpec(site, **kwargs),))


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_of("mm.buddy.typo")

    def test_duplicate_site_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan("dup", (FaultSpec("mm.migrate.pin"),
                              FaultSpec("mm.migrate.pin")))

    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            plan_of("mm.migrate.pin", rate=1.5)
        with pytest.raises(ConfigurationError):
            plan_of("mm.migrate.pin", rate=-0.1)

    def test_negative_budgets_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_of("mm.migrate.pin", max_fires=-1)
        with pytest.raises(ConfigurationError):
            plan_of("mm.migrate.pin", skip=-1)

    def test_named_plans_are_valid_and_picklable(self):
        for name, plan in NAMED_PLANS.items():
            assert plan.name == name
            clone = pickle.loads(pickle.dumps(plan))
            assert clone.snapshot() == plan.snapshot()

    def test_snapshot_is_json_ready(self):
        snap = NAMED_PLANS["ci-smoke"].snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["name"] == "ci-smoke"
        assert {s["site"] for s in snap["specs"]} <= set(KNOWN_SITES)

    def test_should_crash_window(self):
        plan = plan_of("fleet.worker.crash", max_fires=1, skip=1)
        assert not plan.should_crash(7, 0)   # inside skip window
        assert plan.should_crash(7, 1)       # the one budgeted fire
        assert not plan.should_crash(7, 2)   # budget exhausted

    def test_should_crash_rate_deterministic(self):
        plan = plan_of("fleet.worker.crash", rate=0.5)
        draws = [plan.should_crash(seed, 0) for seed in range(64)]
        assert draws == [plan.should_crash(seed, 0) for seed in range(64)]
        assert any(draws) and not all(draws)


class TestInjector:
    def test_install_arms_and_uninstall_disarms(self):
        plan = plan_of("mm.migrate.pin")
        with injecting(plan, seed=3) as faults:
            assert faults is FAULTS
            assert FAULTS.plan is plan
            assert fault_site("mm.migrate.pin").armed
        assert FAULTS.plan is None
        assert not fault_site("mm.migrate.pin").armed

    def test_injecting_none_is_passthrough(self):
        with injecting(None) as faults:
            assert faults is FAULTS
            assert FAULTS.plan is None

    def test_rate_draws_deterministic_per_seed(self):
        def pattern(seed: int) -> list[bool]:
            with injecting(plan_of("mm.migrate.pin", rate=0.3), seed=seed):
                site = fault_site("mm.migrate.pin")
                return [site.fire() for _ in range(32)]

        assert pattern(1) == pattern(1)
        assert pattern(1) != pattern(2)

    def test_fire_counts_nonzero_only(self):
        plan = FaultPlan("two", (FaultSpec("mm.migrate.pin", max_fires=2),
                                 FaultSpec("mm.migrate.busy", rate=0.0)))
        with injecting(plan, seed=0) as faults:
            site = fault_site("mm.migrate.pin")
            site.fire()
            site.fire()
            fault_site("mm.migrate.busy").fire()
            assert faults.fire_counts() == {"fault.mm.migrate.pin": 2}


class TestDisabledOverheadContract:
    """No plan installed => hooks cost one attribute load + one branch
    (the same contract as tracepoints)."""

    def test_sites_default_disarmed(self):
        for name in KNOWN_SITES:
            assert fault_site(name).armed is False

    def test_armed_is_a_plain_slot_attribute(self):
        assert "armed" in FaultSite.__slots__
        assert not isinstance(vars(FaultSite).get("armed"), property)

    def test_disarmed_hot_paths_never_call_fire(self, monkeypatch):
        """With every site disarmed, `site.armed and site.fire(...)`
        must short-circuit: poison fire() and run a real workload."""
        def boom(self, **ctx):  # pragma: no cover - contract violation
            raise AssertionError(f"fire() reached while disarmed: {self.name}")

        monkeypatch.setattr(FaultSite, "fire", boom)
        k = make_linux(mem_mib=8)
        handles = [k.alloc_pages(0) for _ in range(64)]
        handles.append(k.alloc_pages(3, source=AllocSource.SLAB))
        for h in handles[::2]:
            k.free_pages(h)
        k.advance()
        k.compactor.compact(k.buddy, k.handles)
        k.check_consistency()


class TestMigrateRetry:
    def test_transient_fault_retried_then_succeeds(self):
        k = make_linux(mem_mib=4)
        h = k.alloc_pages(0)
        with injecting(plan_of("mm.migrate.busy", max_fires=1), seed=0):
            dst = k.buddy.take_free_split(
                k.buddy.free_heads_in(0, k.mem.nframes)[-1], 0)
            migrate_with_retry(k.mem, h.pfn, dst, stat=k.stat)
        assert k.stat[ev.MIGRATE_RETRY] == 1

    def test_persistent_fault_raises_after_budget(self):
        k = make_linux(mem_mib=4)
        h = k.alloc_pages(0)
        with injecting(plan_of("mm.migrate.pin"), seed=0):
            dst = k.buddy.take_free_split(
                k.buddy.free_heads_in(0, k.mem.nframes)[-1], 0)
            with pytest.raises(MigrationError):
                migrate_with_retry(k.mem, h.pfn, dst, stat=k.stat)
        # One retry per failed attempt beyond the first.
        assert k.stat[ev.MIGRATE_RETRY] == MIGRATE_MAX_ATTEMPTS
        # Source page untouched: still allocated at its original head.
        assert k.mem.alloc_order[h.pfn] == 0

    def test_compaction_survives_transient_failures(self):
        k = make_linux(mem_mib=8)
        pages = [k.alloc_pages(0) for _ in range(k.mem.nframes)]
        for i, h in enumerate(pages):
            if i % 2 == 0:
                k.free_pages(h)
        with injecting(plan_of("mm.migrate.busy", rate=0.3), seed=5):
            result = k.compactor.compact(k.buddy, k.handles)
        assert result.pages_failed_transient > 0
        assert result.pages_migrated > 0
        k.check_consistency()


class TestWatermarkRescue:
    def test_transient_watermark_failure_recovers_in_slow_path(self):
        k = make_linux(mem_mib=4)
        with injecting(plan_of("mm.buddy.watermark", max_fires=1), seed=0):
            h = k.alloc_pages(3)
        assert h.nframes == 8
        assert k.stat[ev.ALLOC_FAIL] >= 1

    def test_oom_rescue_after_slow_path_exhausted(self):
        """Four fires cover the fast path and every slow-path retry; the
        rescue's escalated attempt is the fifth and saves the run."""
        k = make_linux(mem_mib=4)
        with injecting(plan_of("mm.buddy.watermark", max_fires=4), seed=0):
            h = k.alloc_pages(3)
        assert h.nframes == 8
        assert k.stat[ev.OOM_RESCUE] == 1

    def test_unbounded_watermark_failure_is_typed_oom(self):
        k = make_linux(mem_mib=4)
        with injecting(plan_of("mm.buddy.watermark"), seed=0):
            with pytest.raises(OutOfMemoryError):
                k.alloc_pages(3)

    def test_rescue_inactive_without_armed_site(self):
        """Genuine OOM behaviour is untouched when no watermark fault is
        armed: full exhaustion still raises, with no rescue counted."""
        k = make_linux(mem_mib=4)
        keep = []
        with pytest.raises(OutOfMemoryError):
            while True:
                keep.append(k.alloc_pages(0))
        assert k.stat[ev.OOM_RESCUE] == 0


class TestMemoryFailure:
    def test_free_frame_hard_offlined(self):
        k = make_linux(mem_mib=4)
        victim = 17
        assert k.memory_failure(victim)
        assert k.mem.is_poisoned(victim)
        assert k.offlined_frames() == 1
        assert k.stat[ev.MEMORY_FAILURE_OFFLINED] == 1
        k.check_consistency()
        # The dead frame is never handed out again.
        keep = []
        try:
            while True:
                keep.append(k.alloc_pages(0))
        except OutOfMemoryError:
            pass
        assert all(h.pfn != victim for h in keep)

    def test_movable_page_migrated_then_offlined(self):
        k = make_linux(mem_mib=4)
        h = k.alloc_pages(0)
        victim = h.pfn
        assert k.memory_failure(victim)
        assert h.pfn != victim
        assert k.mem.is_poisoned(victim)
        assert k.offlined_frames() == 1
        assert k.stat[ev.MIGRATE_SUCCESS] >= 1
        k.free_pages(h)
        k.check_consistency()

    def test_pinned_page_fatal_then_deferred_offline(self):
        k = make_linux(mem_mib=4)
        h = k.alloc_pages(0, source=AllocSource.USER)
        k.pin_pages(h)
        victim = h.pfn
        assert not k.memory_failure(victim)   # fatal in place
        assert k.stat[ev.MEMORY_FAILURE_FATAL] == 1
        assert k.mem.is_poisoned(victim)
        assert k.offlined_frames() == 0       # still owned by the pin
        k.unpin_pages(h)
        k.free_pages(h)                        # deferred offline fires here
        assert k.offlined_frames() == 1
        assert k.mem.is_poisoned(victim)
        k.check_consistency()

    def test_double_failure_is_idempotent(self):
        k = make_linux(mem_mib=4)
        assert k.memory_failure(9)
        assert k.memory_failure(9)
        assert k.offlined_frames() == 1
        assert k.stat[ev.MEMORY_FAILURE] == 2

    def test_contiguity_scan_accounts_for_hole(self):
        from repro.analysis.contiguity import free_block_count

        k = make_linux(mem_mib=4)
        before = free_block_count(k.mem, PAGEBLOCK_FRAMES)
        assert k.memory_failure(PAGEBLOCK_FRAMES + 3)
        after = free_block_count(k.mem, PAGEBLOCK_FRAMES)
        assert after == before - 1
        assert k.mem.free_frames() == k.mem.nframes - 1

    def test_contiguitas_region_routes_around_hole(self):
        k = make_contiguitas(mem_mib=64)
        victim = 5  # movable region starts at frame 0
        assert k.memory_failure(victim)
        assert k.layout.offlined_movable == 1
        assert k.layout.offlined_unmovable == 0
        assert (k.layout.effective_movable_frames
                == k.layout.movable_frames - 1)
        k.check_consistency()

    def test_uce_plan_offlines_over_time(self):
        k = make_linux(mem_mib=16)
        with injecting(NAMED_PLANS["uce"], seed=7) as faults:
            for _ in range(200):
                k.advance()
            fires = faults.fire_counts().get("fault.mm.memory.uce", 0)
        assert fires > 0
        assert k.offlined_frames() == fires
        k.check_consistency()


SMALL = dict(mem_bytes=MiB(64), min_uptime_steps=20, max_uptime_steps=60)


class TestChaosFleet:
    def test_same_seed_same_plan_bit_identical_manifests(self, tmp_path):
        from repro.telemetry import TelemetryConfig

        def manifest(path):
            cfg = ServerConfig(**SMALL, fault_plan=NAMED_PLANS["ci-smoke"])
            sample = run_fleet(FleetConfig(
                n_servers=4, server=cfg, base_seed=3, workers=2,
                backoff_base=0.0,
                telemetry=TelemetryConfig(manifest_path=str(path))))
            return sample.manifest

        a = deterministic_view(manifest(tmp_path / "a.json"))
        b = deterministic_view(manifest(tmp_path / "b.json"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_chaos_run_complete_with_zero_drops(self):
        cfg = ServerConfig(**SMALL, fault_plan=NAMED_PLANS["ci-smoke"])
        sample = run_fleet(FleetConfig(n_servers=4, server=cfg, base_seed=3,
                                       workers=2, backoff_base=0.0))
        assert len(sample.scans) == 4
        assert not any(scan.failed for scan in sample.scans)
        totals = sample.vmstat_totals()
        assert totals["fault.mm.buddy.watermark"] > 0
        assert totals["oom_rescue"] > 0

    def test_crash_only_chaos_matches_clean_manifest_counters(self):
        clean = run_fleet(FleetConfig(n_servers=3,
                                      server=ServerConfig(**SMALL),
                                      base_seed=11, workers=1))
        cfg = ServerConfig(**SMALL, fault_plan=NAMED_PLANS["crash-only"])
        chaotic = run_fleet(FleetConfig(n_servers=3, server=cfg,
                                        base_seed=11, workers=1,
                                        backoff_base=0.0))
        assert chaotic.scans == clean.scans

    def test_manifest_config_records_plan(self):
        from repro.fleet.sampler import _manifest_config

        cfg = ServerConfig(**SMALL, fault_plan=NAMED_PLANS["crash-only"])
        rec = _manifest_config(3, cfg, 0)
        assert rec["fault_plan"]["name"] == "crash-only"
        assert _manifest_config(3, ServerConfig(**SMALL), 0)[
            "fault_plan"] is None
