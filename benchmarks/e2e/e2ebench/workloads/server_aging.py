"""server-aging: the paper's A/B — the same churn on Linux and Contiguitas.

Each round ages one 256 MiB server per service (web, cache-a, cache-b,
ci) on both kernels for 300 steps with the same seed and scans it, as
Fig. 11 does.  Closed loop, one client: the churn driver issues the
next kernel call when the previous one returns.  The driver and the
scalar ``alloc_pages``/``free_pages`` path do nearly all the work;
``sim``, the experiment cache and the CLI do none.

The benchmark drives ``Workload`` itself (boot, ``start``, ``step`` x
300, scan) rather than ``run_fleet``: a fleet draws each server's
service, uptime and utilisation from its seed, and with the ~40 servers
that fit in a run that draw alone moves steps/s by 5 % between seeds.
"""

from __future__ import annotations

import statistics

from repro.analysis import (contiguity_report, free_block_count,
                            unmovable_report)
from repro.core import ContiguitasConfig, ContiguitasKernel
from repro.kalloc.sources import unmovable_breakdown
from repro.mm import KernelConfig, LinuxKernel
from repro.telemetry import RingBufferSink, tracing
from repro.units import PAGEBLOCK_FRAMES, MiB
from repro.workloads import Workload as ChurnDriver
from repro.workloads import get_service

from ..tracer import NullTracer
from .base import RunContext, Workload
from .kernel_metrics import counter_metrics, kernel_layer_metrics

SERVICES = ("web", "cache-a", "cache-b", "ci")
MEM_BYTES = MiB(256)
STEPS = 300

KERNELS = (
    ("linux", "mm", LinuxKernel, KernelConfig),
    ("contiguitas", "core", ContiguitasKernel, ContiguitasConfig),
)


def age_server(kernel_cls, config_cls, service: str, seed: int, steps: int,
               tracer, req=None, mem_bytes: int = MEM_BYTES) -> dict:
    """Boot a kernel, age it under *service* for *steps* and scan it."""
    with tracer.span("workloads.run", req=req):
        kernel = kernel_cls(config_cls(mem_bytes=mem_bytes))
        driver = ChurnDriver(kernel, get_service(service), seed=seed)
        driver.start()
        for _ in range(steps):
            driver.step()
        with tracer.span("analysis.scan"):
            mem = kernel.mem
            scan = {
                "free_frames": mem.free_frames(),
                "free_2m_blocks": free_block_count(mem, PAGEBLOCK_FRAMES),
                "contiguity": contiguity_report(mem),
                "unmovable": unmovable_report(mem),
                "sources": unmovable_breakdown(mem),
            }
    return {"scan": scan, "vmstat": kernel.stat.snapshot(),
            "oom_events": driver.oom_events,
            "thp": [driver.thp_hits, driver.thp_misses]}


class ServerAging(Workload):
    name = "server-aging"
    unit = "simulated steps"
    item = "one 300-step server (boot, churn, scan) on one kernel"

    def __init__(self) -> None:
        self.unmovable: dict[str, list[float]] = {"linux": [],
                                                  "contiguitas": []}

    def setup(self, ctx: RunContext) -> None:
        # One short untimed server per kernel: first-call caches
        # (numpy ufunc dispatch, lazy imports in the kernels) fill here.
        for _name, _layer, cls, cfg in KERNELS:
            age_server(cls, cfg, "web", ctx.item_seed(0), 20, ctx.tracer)

    def round(self, ctx: RunContext, index: int) -> dict:
        outputs = {}
        seed = ctx.item_seed(index)
        for service in SERVICES:
            for kname, layer, base, cfg in KERNELS:
                cls = ctx.kernel_class(base, layer)
                out = ctx.meter.item(
                    f"{service}/{kname}", STEPS, age_server, cls, cfg,
                    service, seed, STEPS, ctx.tracer,
                    req={"round": index, "service": service,
                         "kernel": kname, "seed": seed})
                ctx.attempted += 1
                ctx.failed += 1 if out["oom_events"] else 0
                self.unmovable[kname].append(out["scan"]["unmovable"]["2MB"])
                outputs[f"{service}/{kname}"] = out
        return outputs

    def finish(self, ctx: RunContext, round0: dict) -> None:
        again = age_server(LinuxKernel, KernelConfig, SERVICES[0],
                           ctx.item_seed(0), STEPS, NullTracer())
        ctx.check("repeat-identical",
                  again == round0[f"{SERVICES[0]}/linux"],
                  "a second in-process run of round 0's first server "
                  "must reproduce its scan and vmstat")
        linux = statistics.median(self.unmovable["linux"])
        contig = statistics.median(self.unmovable["contiguitas"])
        ctx.check("fig11-shape", contig < linux,
                  f"median unmovable 2 MiB block fraction: contiguitas "
                  f"{contig:.4f} must be below linux {linux:.4f}")
        ctx.exact.update(counter_metrics(
            [out["vmstat"] for key, out in round0.items()
             if key.endswith("/linux")]))
        for kname in self.unmovable:
            ctx.exact[f"unmovable_2mb_median_{kname}"] = statistics.median(
                out["scan"]["unmovable"]["2MB"]
                for key, out in round0.items() if key.endswith("/" + kname))

    def layer_metrics(self, ctx: RunContext) -> dict[str, float]:
        tr = ctx.tracer
        metrics = kernel_layer_metrics(
            tr, ctx.rounds,
            steps_round0=STEPS * len(SERVICES) * len(KERNELS))
        scans = tr.span_durations_s("analysis.scan")
        metrics["analysis.scan_ms_p50"] = statistics.median(scans) * 1e3
        metrics["telemetry.enabled_slowdown_x"] = self._telemetry_slowdown(ctx)
        return metrics

    def _telemetry_slowdown(self, ctx: RunContext) -> float:
        """One server with every tracepoint streaming to a ring buffer
        over the same server with tracing off (ref-speed seconds)."""
        args = (LinuxKernel, KernelConfig, SERVICES[0], ctx.item_seed(0),
                STEPS, NullTracer())

        def traced():
            with tracing("*", sink=RingBufferSink(1 << 16)):
                return age_server(*args)

        _out, off = ctx.meter.timed("telemetry-off", STEPS, age_server, *args)
        _out, on = ctx.meter.timed("telemetry-on", STEPS, traced)
        return on.ref_s / off.ref_s
