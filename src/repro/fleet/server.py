"""One simulated fleet server: kernel + workload + uptime (§2.4).

The fleet study samples servers mid-life: each server boots a kernel,
runs a randomly drawn service for an uptime-scaled number of steps, and is
then scanned exactly like the paper's full physical-memory scans.  The
key empirical behaviours reproduced here:

* servers fragment within the first "hour" of churn and then plateau, so
  contiguity is uncorrelated with uptime beyond that;
* the unmovable mix follows the Fig. 6 source breakdown.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..analysis.contiguity import (
    contiguity_report,
    free_block_count,
    unmovable_report,
)
from ..errors import ConfigurationError
from ..faults import FaultPlan, injecting
from ..kalloc.sources import unmovable_breakdown
from ..mm.kernel import KernelConfig, LinuxKernel
from ..mm.page import AllocSource
from ..units import FRAME_SIZE, PAGEBLOCK_FRAMES, MiB
from ..workloads.base import Workload
from ..workloads.services import CACHE_A, CACHE_B, CI, WEB

#: Per-server memory utilisation is drawn from this range — fleets are
#: not uniformly full, which is what gives Fig. 4 its spread.
UTILIZATION_RANGE = (0.70, 0.99)

@dataclass
class ServerScan:
    """The measurements the paper collects per sampled server."""

    uptime_steps: int
    free_frames: int
    free_2m_blocks: int
    contiguity: dict[str, float]
    unmovable: dict[str, float]
    sources: dict[AllocSource, int]
    #: The server kernel's vmstat counters at scan time.  Computed inside
    #: the (seeded, deterministic) worker so fleet manifests aggregate the
    #: same counters whatever the worker count.  Chaos runs also fold the
    #: non-zero ``fault.*`` fire counters in here, so injected faults are
    #: visible in manifests while fault-free servers stay bit-identical
    #: to a clean run.
    vmstat: dict[str, int] = field(default_factory=dict)
    #: Degradation markers: a scan whose server exhausted its retry
    #: budget is a placeholder with ``failed=True`` and the final error
    #: (see :func:`repro.fleet.engine.iter_fleet_scans`); aggregates
    #: skip it.
    failed: bool = False
    error: str = ""

    def snapshot(self) -> dict:
        """Scalar measurements plus counters as one flat-ish dict
        (the telemetry ``snapshot()`` surface).  Degradation keys
        appear only on a failed scan, so healthy snapshots stay
        byte-identical to earlier runs."""
        snap = {
            "uptime_steps": self.uptime_steps,
            "free_frames": self.free_frames,
            "free_2m_blocks": self.free_2m_blocks,
            "contiguity": dict(self.contiguity),
            "unmovable": dict(self.unmovable),
            "sources": {src.name: n for src, n in self.sources.items()},
            "vmstat": dict(self.vmstat),
        }
        if self.failed:
            snap["failed"] = True
            snap["error"] = self.error
        return snap

    @classmethod
    def from_snapshot(cls, snap: dict) -> "ServerScan":
        """Rebuild a scan from :meth:`snapshot` output (possibly after a
        JSON round trip, e.g. out of the experiment result cache).  The
        round trip is loss-free: ``ServerScan.from_snapshot(s.snapshot())
        == s`` for every scan."""
        return cls(
            uptime_steps=snap["uptime_steps"],
            free_frames=snap["free_frames"],
            free_2m_blocks=snap["free_2m_blocks"],
            contiguity=dict(snap["contiguity"]),
            unmovable=dict(snap["unmovable"]),
            sources={AllocSource[name]: n
                     for name, n in snap["sources"].items()},
            vmstat=dict(snap["vmstat"]),
            failed=bool(snap.get("failed", False)),
            error=snap.get("error", ""),
        )


@dataclass(frozen=True)
class ServerConfig:
    """Fleet-server knobs (defaults give a fast, representative sample).

    Frozen like the other front-door configs (docs/API.md): scans are
    keyed and cached by config values, so a config must not drift after
    a server has been built from it.
    """

    #: 1 GiB machines so the paper's 1 GiB scan granularity is meaningful
    #: (the paper samples 64 GiB hosts; policies scale with size).
    mem_bytes: int = MiB(1024)
    kernel_cls: type = LinuxKernel
    #: Steps of workload churn per unit of uptime; fragmentation
    #: saturates long before high uptimes, as in production.
    min_uptime_steps: int = 50
    max_uptime_steps: int = 800
    #: Declarative chaos: when set, the plan is installed inside each
    #: worker (seeded per server) for the duration of its run, and the
    #: ``fleet.worker.crash`` spec drives injected crashes in the engine.
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        # PhysicalMemory's check, made here so that a bad size is one
        # error at the front door, not every worker's retry budget.
        pageblock = PAGEBLOCK_FRAMES * FRAME_SIZE
        if self.mem_bytes <= 0 or self.mem_bytes % pageblock:
            raise ConfigurationError(
                f"memory size {self.mem_bytes} must be a positive "
                f"multiple of {pageblock} bytes")
        if not 0 <= self.min_uptime_steps <= self.max_uptime_steps:
            raise ConfigurationError(
                "uptime range needs 0 <= min_uptime_steps <= "
                f"max_uptime_steps, got {self.min_uptime_steps} and "
                f"{self.max_uptime_steps}")


FLEET_SERVICES = (WEB, CACHE_A, CACHE_B, CI)


class SimulatedServer:
    """Boot, run to a sampled uptime, and scan."""

    def __init__(self, config: ServerConfig | None = None,
                 seed: int = 0) -> None:
        self.config = config or ServerConfig()
        self.seed = seed
        self.rng = random.Random(seed)

    def run(self) -> ServerScan:
        """Run the server's whole life under its fault plan (if any) and
        scan it.  The plan is installed with this server's seed, so the
        same (seed, plan) pair fires the same faults wherever and however
        often the payload is executed — the property that makes retried
        chaos runs bit-identical to clean runs of the same seed."""
        plan = self.config.fault_plan
        with injecting(plan, seed=self.seed) as faults:
            scan = self._run_scan()
            # Counts only under a plan: without one `faults` is the
            # passthrough global registry, whose counters may be stale
            # from an earlier in-process chaos run.
            counts = faults.fire_counts() if plan is not None else {}
        if counts:
            scan.vmstat.update(counts)
        return scan

    def _run_scan(self) -> ServerScan:
        cfg = self.config
        kernel = cfg.kernel_cls(KernelConfig(mem_bytes=cfg.mem_bytes))
        spec = self.rng.choice(FLEET_SERVICES)
        uptime = self.rng.randint(cfg.min_uptime_steps, cfg.max_uptime_steps)

        # Draw this server's utilisation and cap the page cache so free
        # memory varies across the fleet like it does in production.
        util = self.rng.uniform(*UTILIZATION_RANGE)
        anon = min(spec.anon_fraction, util - 0.05)
        cache = max(0.03, util - anon - 0.05)
        spec = replace(spec, anon_fraction=anon, cache_fraction=cache,
                       cache_opportunistic=False)

        workload = Workload(kernel, spec, seed=self.seed)
        workload.start()
        for _ in range(uptime):
            workload.step()

        mem = kernel.mem
        return ServerScan(
            uptime_steps=uptime,
            free_frames=mem.free_frames(),
            free_2m_blocks=free_block_count(mem, PAGEBLOCK_FRAMES),
            contiguity=contiguity_report(mem),
            unmovable=unmovable_report(mem),
            sources=unmovable_breakdown(mem),
            vmstat=kernel.stat.snapshot(),
        )
