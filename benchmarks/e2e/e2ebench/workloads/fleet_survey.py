"""fleet-survey: a streaming survey over many short-lived servers.

Each round is one ``survey_fleet`` over 200 servers of 64 MiB with
40-80 steps of uptime on ``min(2, nproc)`` worker processes — Figs.
4-6.  It uses ``mm`` differently from server-aging: lives are short, so
kernel boot, the ``analysis`` scans, pickling scans across processes
and streaming aggregation carry a far larger share, and it is the only
workload where the parallel engine, chunking and the slowest shard
matter.  Closed loop: the supervisor keeps two tasks in flight per
worker and submits the next when one lands.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import replace

from repro.fleet import FleetConfig, ServerConfig, iter_fleet_scans, survey_fleet
from repro.mm import KernelConfig, LinuxKernel
from repro.units import MiB

from ..stats import percentile
from .base import RunContext, Workload
from .kernel_metrics import counter_metrics, kernel_layer_metrics
from .server_aging import age_server

N_SERVERS = 200
SERVER = ServerConfig(mem_bytes=MiB(64), min_uptime_steps=40,
                      max_uptime_steps=80)
WORKERS = min(2, os.cpu_count() or 1)
#: Servers in the worker-count identity check and the warm-up.
SLICE = 64
#: Servers run serially under taps in the traced run (p90 needs 100).
TRACED_SLICE = 100


def survey(n_servers: int, base_seed: int, workers: int) -> dict:
    """One streaming survey; returns its simulated outcome."""
    summary = survey_fleet(FleetConfig(
        n_servers=n_servers, workers=workers, base_seed=base_seed,
        server=SERVER))
    return {"summary": summary.snapshot(),
            "vmstat": summary.vmstat_totals().snapshot()}


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class FleetSurvey(Workload):
    name = "fleet-survey"
    unit = "servers"
    item = "one 200-server survey_fleet on min(2, nproc) workers"

    def __init__(self) -> None:
        self.slice_parallel: dict = {}
        self.serial_item = None

    def _n(self, ctx: RunContext, n: int) -> int:
        return max(8, n // 8) if ctx.quick else n

    def setup(self, ctx: RunContext) -> None:
        # Warm-up and the parallel side of the worker-count check.
        self.slice_parallel = survey(self._n(ctx, SLICE), ctx.item_seed(0, 1),
                                     WORKERS)

    def round(self, ctx: RunContext, index: int) -> dict:
        n = self._n(ctx, N_SERVERS)
        children0, parent0 = (_cpu_s(resource.RUSAGE_CHILDREN),
                              _cpu_s(resource.RUSAGE_SELF))
        out = ctx.meter.item("survey", n, self._survey_span, ctx.tracer, n,
                             ctx.item_seed(index), index)
        ctx.meter.count("children_cpu_s",
                        _cpu_s(resource.RUSAGE_CHILDREN) - children0)
        ctx.meter.count("parent_cpu_s",
                        _cpu_s(resource.RUSAGE_SELF) - parent0)
        ctx.attempted += n
        ctx.failed += out["summary"]["n_failed_servers"]
        return out

    @staticmethod
    def _survey_span(tracer, n: int, base_seed: int, index: int) -> dict:
        with tracer.span("fleet.survey", req={"round": index}):
            return survey(n, base_seed, WORKERS)

    def finish(self, ctx: RunContext, round0: dict) -> None:
        # Timed too: the untapped serial engine is the base of the
        # traced run's parallel-efficiency figure.
        n = self._n(ctx, SLICE)
        serial, self.serial_item = ctx.meter.timed(
            "serial-slice", n, survey, n, ctx.item_seed(0, 1), 1)
        ctx.check("workers-identical", serial == self.slice_parallel,
                  f"a {self._n(ctx, SLICE)}-server slice must aggregate to "
                  f"the same summary and vmstat on 1 and {WORKERS} workers")
        ctx.exact.update(counter_metrics([round0["vmstat"]]))
        ctx.exact["median_unmovable_2mb"] = round0["summary"][
            "median_unmovable_2mb"]

    def layer_metrics(self, ctx: RunContext) -> dict[str, float]:
        tr = ctx.tracer
        n = self._n(ctx, TRACED_SLICE)
        self._serial_slice(ctx, n)
        tapped = ctx.kernel_class(LinuxKernel, "mm")
        for i in range(4):      # scans re-timed on 64 MiB servers
            age_server(tapped, KernelConfig, "web", ctx.item_seed(0, i),
                       60, tr, mem_bytes=SERVER.mem_bytes)
        # The taps saw the serial slice and these four servers only —
        # fixed work, so "per round" is per one such batch.
        metrics = kernel_layer_metrics(tr, rounds=1)
        metrics["analysis.scan_ms_p50"] = statistics.median(
            tr.span_durations_s("analysis.scan")) * 1e3

        servers_ms = [s * 1e3 for s in tr.span_durations_s("fleet.server")]
        surveys = [i for i in ctx.meter.items if i.label == "survey"]
        survey_ref_s = statistics.median(i.ref_s for i in surveys)
        serial_ref_s = (self.serial_item.ref_s / self.serial_item.units
                        * surveys[0].units)
        metrics.update({
            "fleet.server_ms_p50": percentile(servers_ms, 50),
            "fleet.server_ms_p90": percentile(servers_ms, 90),
            "fleet.children_cpu_s":
                ctx.meter.counts["children_cpu_s"] / ctx.rounds,
            "fleet.parent_cpu_s":
                ctx.meter.counts["parent_cpu_s"] / ctx.rounds,
            "fleet.parallel_efficiency":
                serial_ref_s / (WORKERS * survey_ref_s),
            "fleet.engine_overhead_s": survey_ref_s - serial_ref_s / WORKERS,
        })
        return metrics

    def _serial_slice(self, ctx: RunContext, n: int) -> None:
        """*n* servers on the serial engine with a tapped kernel class;
        the serial path yields after each server, so the time between
        two yields is that server's."""
        tr = ctx.tracer
        server = replace(SERVER, kernel_cls=ctx.kernel_class(LinuxKernel, "mm"))
        with tr.span("fleet.serial_slice"):
            last = time.perf_counter_ns()
            for index, _scan in iter_fleet_scans(
                    n, config=server, base_seed=ctx.item_seed(0, 2),
                    workers=1):
                now = time.perf_counter_ns()
                tr.add_span("fleet.server", last, now, req={"index": index})
                last = now

