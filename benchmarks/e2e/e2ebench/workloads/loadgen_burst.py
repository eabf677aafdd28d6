"""loadgen-burst: the request stream under the three migration designs.

Each round runs ``run_loadgen`` once per design (noncacheable,
cacheable, none) and app (nginx, memcached) on one azure-faas arrival
trace (2 M requests per simulated second for 1 simulated ms, 8 buffer
pages) — Fig. 13 / section 5.3.  Inside the program this is an open
loop in *simulated* time: arrivals are dispatched on schedule and the
simulated clock jumps over idle gaps.  On the host it is a closed loop
of six calls.  ``sim`` and ``requestloop`` do all the work; ``mm``,
``core`` and ``fleet`` do none, which makes this the bypass workload
for every allocator change.
"""

from __future__ import annotations

from repro.workloads import LoadgenConfig, RequestLoop, run_loadgen
from repro.workloads import tracegen

from ..tracer import NullTracer, patched
from .base import RunContext, Workload, all_of

DESIGNS = ("noncacheable", "cacheable", "none")
APPS = ("nginx", "memcached")
SHAPE = "azure-faas"
RATE_RPS = 2e6
DURATION_S = 1e-3
BUFFER_PAGES = 8


def burst(app: str, design: str, seed: int, tracer, req=None,
          duration_s: float = DURATION_S) -> dict:
    """One load burst; returns its simulated outcome."""
    config = LoadgenConfig(shape=SHAPE, rate_rps=RATE_RPS,
                           duration_s=duration_s, buffer_pages=BUFFER_PAGES,
                           app=app, design=design, seed=seed)
    with tracer.span("workloads.run_loadgen", req=req):
        result = run_loadgen(config)
    served = result.latency["all"].count
    return {"requests": result.requests, "served": served,
            "windows": result.windows_seen, "spikes": result.spikes,
            "span_cycles": result.span_cycles, "summary": result.summary()}


class LoadgenBurst(Workload):
    name = "loadgen-burst"
    unit = "simulated requests"
    item = "one run_loadgen burst (one design, one app)"

    def __init__(self) -> None:
        #: app -> design -> p99 (us) of every burst run.
        self.p99: dict[str, dict[str, list[float]]] = {
            app: {design: [] for design in DESIGNS} for app in APPS}

    @staticmethod
    def _duration(ctx: RunContext) -> float:
        return DURATION_S / 8 if ctx.quick else DURATION_S

    def setup(self, ctx: RunContext) -> None:
        for app in APPS:
            burst(app, "noncacheable", ctx.item_seed(0), ctx.tracer,
                  duration_s=2e-4)

    def round(self, ctx: RunContext, index: int) -> dict:
        outputs = {}
        seed = ctx.item_seed(index)
        duration = self._duration(ctx)
        for app in APPS:
            for design in DESIGNS:
                out = ctx.meter.item(
                    f"{app}/{design}", lambda o: o["requests"], burst,
                    app, design, seed, ctx.tracer,
                    {"round": index, "app": app, "design": design,
                     "seed": seed}, duration)
                ctx.attempted += out["requests"]
                ctx.failed += out["requests"] - out["served"]
                ctx.meter.count("sim_cycles", out["span_cycles"])
                outputs[f"{app}/{design}"] = out
            for design in DESIGNS:
                self.p99[app][design].append(
                    outputs[f"{app}/{design}"]["summary"]["all"]["p99_us"])
        return outputs

    def taps(self, ctx: RunContext):
        tr = ctx.tracer
        return all_of(
            patched(RequestLoop, "serve_request",
                    lambda fn: tr.tap("sim.serve_request", fn)),
            patched(tracegen, "sample_arrivals",
                    lambda fn: tr.tap("workloads.sample_arrivals", fn)),
            patched(tracegen, "sample_service",
                    lambda fn: tr.tap("workloads.sample_service", fn,
                                      units=sum)))

    def finish(self, ctx: RunContext, round0: dict) -> None:
        key = f"{APPS[0]}/{DESIGNS[0]}"
        again = burst(APPS[0], DESIGNS[0], ctx.item_seed(0), NullTracer(),
                      duration_s=self._duration(ctx))
        ctx.check("repeat-identical", again == round0[key],
                  "a second in-process burst must reproduce round 0's "
                  "latency summary")
        if not ctx.quick:     # a 0.125 ms burst has no stable p99
            self._check_order(ctx)
        ctx.exact["loadgen.requests_round0"] = float(
            sum(out["requests"] for out in round0.values()))

    def _check_order(self, ctx: RunContext) -> None:
        """Section 5.3: noncacheable migration hurts the tail most,
        cacheable at least as much as none.  A 1 ms burst whose tail
        happens to miss every migration window ties (1 in 60 seeds), so
        each round must hold with >= and the run's mean strictly."""
        for app, by_design in self.p99.items():
            nc, c, none = (by_design[d] for d in DESIGNS)
            per_round = all(a >= b >= z for a, b, z in zip(nc, c, none))
            ctx.check(f"s5.3-order[{app}]",
                      per_round and sum(nc) > sum(c) >= sum(none),
                      f"p99 us per round: noncacheable {nc}, cacheable {c}, "
                      f"none {none}")

    def layer_metrics(self, ctx: RunContext) -> dict[str, float]:
        tr = ctx.tracer
        serve_s = tr.total("sim.serve_request").sum_ns / 1e9
        sample_s = (tr.total("workloads.sample_arrivals").sum_ns
                    + tr.total("workloads.sample_service").sum_ns) / 1e9
        # Instructions are not on LoadgenResult; sample_service returns
        # them per request, so the tap sums what it handed out.
        instructions = tr.total("workloads.sample_service").units
        host_s = ctx.meter.total_wall_s()
        rounds = ctx.rounds
        return {
            "sim.serve_s": serve_s / rounds,
            "sim.cycles_per_host_s":
                ctx.meter.counts["sim_cycles"] / host_s,
            "sim.instr_per_host_s": instructions / host_s,
            "workloads.tracegen_sample_s": sample_s / rounds,
            "workloads.loadgen_self_s":
                tr.self_times().get("workloads.run_loadgen", 0.0) / rounds,
        }
