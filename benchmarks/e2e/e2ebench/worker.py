"""Run one workload in this process and print its result document.

``run.py`` starts one worker per workload (``python -m e2ebench.worker``
with ``PYTHONHASHSEED=0``) so that peak RSS, import cost and any state
the program keeps per process belong to that workload alone.  The last
line of standard output is one JSON document; ``run.py`` renders it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from .meter import PROBE_REF_S, Meter, probe
from .stats import sim_digest, summarize
from .tracer import Tracer, layer_times

#: Layer self times must add up to the root span within this.
SELF_TIME_GAP_LIMIT_PCT = 2.0


def _peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for
    (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so the
    speed probe runs on the core the children run on: cores of one
    host drift apart, and unpinned the warm CLI runs read 20 % slower
    against a probe taken on the other core."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass        # not Linux, or not permitted: run unpinned


def _measure(workload, ctx, seconds: float) -> tuple[dict, int]:
    """Whole rounds until *seconds* have passed; round 0's outputs."""
    ctx.meter.start()
    round0 = workload.round(ctx, 0)
    rounds = 1
    while ctx.meter.elapsed() < seconds:
        workload.round(ctx, rounds)
        rounds += 1
    return round0, rounds


def _unit_us_p50(meter: Meter) -> float:
    """Median time per work unit in microseconds: the median within
    each item kind, averaged over the kinds.  Rounds are balanced, so
    every kind weighs the same; a plain median over all items would sit
    on the boundary between two kinds and jump with the noise."""
    kinds: dict[str, list[float]] = {}
    for item in meter.items:
        kinds.setdefault(item.label, []).append(item.ref_s / item.units)
    return statistics.fmean(
        statistics.median(values) for values in kinds.values()) * 1e6


def _items_by_label(meter: Meter) -> dict:
    groups: dict[str, list[float]] = {}
    for item in meter.items:
        groups.setdefault(item.label, []).append(item.ref_s * 1e3)
    return {label: summarize(values) for label, values in groups.items()}


def run(args) -> tuple[dict, bool]:
    from . import workloads
    from .workloads.base import RunContext

    # Imports are set-up the user pays on every run: time them.
    before = probe()
    t0 = time.perf_counter()
    workload = workloads.load(args.workload)
    if workload.one_cpu:
        _pin_to_one_cpu()
    import_wall = time.perf_counter() - t0
    import_ref = import_wall * PROBE_REF_S / ((before + probe()) / 2.0)

    scratch = os.path.join(args.scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    ctx = RunContext(seed=args.seed, quick=args.quick, scratch=scratch)
    try:
        setups = []
        for _ in range(1 if args.quick else workload.setup_repeats):
            _none, item = ctx.meter.timed("setup", 0, workload.setup, ctx)
            setups.append(item)
        setup_ref = import_ref + statistics.median(i.ref_s for i in setups)
        setup_wall = import_wall + statistics.median(i.wall_s for i in setups)

        doc = {"workload": args.workload, "seed": args.seed,
               "trace": int(args.trace), "quick": args.quick,
               "seconds": args.seconds, "unit": workload.unit,
               "item": workload.item}
        if args.trace:
            metrics = _traced(workload, ctx, args, doc)
        else:
            round0, rounds = _measure(workload, ctx, args.seconds)
            workload.finish(ctx, round0)
            doc["sim_digest"] = sim_digest(round0)
            meter = ctx.meter
            metrics = {
                "setup_s": setup_ref,
                "throughput_per_s": meter.total_units() / meter.total_ref_s(),
                "unit_us_p50": _unit_us_p50(meter),
                "peak_rss_mib": _peak_rss_mib(),
            }
            doc["rounds"] = rounds
        meter = ctx.meter
        doc["raw"] = {
            "units": meter.total_units(), "items": len(meter.items),
            "wall_s": meter.total_wall_s(), "ref_s": meter.total_ref_s(),
            "speed_factor": meter.median_speed(),
            "import_wall_s": import_wall, "setup_wall_s": setup_wall,
            "setup_repeats": len(setups),
        }
        doc["items"] = _items_by_label(meter)
        doc["all_items"] = summarize(i.ref_s * 1e3 for i in meter.items)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = all(c.ok for c in ctx.checks)
    doc.update(correct=correct, attempted=max(1, ctx.attempted),
               failed=ctx.failed, metrics=metrics, exact=ctx.exact,
               checks=[{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in ctx.checks])
    return doc, correct


def _traced(workload, ctx, args, doc) -> dict:
    """The traced run: every round runs twice on the same inputs, once
    plain and once under taps (alternating which goes first), so the
    tracing overhead is a ratio over identical work; returns the
    per-layer metrics."""
    plain_tracer, tracer = ctx.tracer, Tracer()
    plain_meter, meter = Meter(), Meter()
    round0 = {}
    roots = []
    ratios = []     # per round: ref-speed seconds traced over plain
    index = 0
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                ctx.tracer, ctx.meter = tracer, meter
                with tracer.span("bench.round") as root, workload.taps(ctx):
                    out = workload.round(ctx, index)
                roots.append(root)
            else:
                ctx.tracer, ctx.meter = plain_tracer, plain_meter
                out = workload.round(ctx, index)
            if index == 0:
                round0[traced] = out
        done = len(meter.items) // (index + 1)
        ratios.append(sum(i.ref_s for i in meter.items[-done:])
                      / sum(i.ref_s for i in plain_meter.items[-done:]))
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break
    ctx.tracer, ctx.meter, ctx.rounds = tracer, meter, index

    workload.finish(ctx, round0[True])
    digest = sim_digest(round0[True])
    ctx.check("traced-digest", digest == sim_digest(round0[False]),
              "round 0 under taps must produce the simulated outputs of "
              "round 0 without them")
    doc["sim_digest"] = digest
    doc["rounds"] = index
    # The median round: one slow cycle on either side does not decide it.
    overhead_pct = 100.0 * (statistics.median(ratios) - 1.0)

    self_s = tracer.self_times(set(roots))
    layers = layer_times(self_s)
    root_s = sum(tracer.spans[r][4] - tracer.spans[r][3] for r in roots) / 1e9
    gap_pct = 100.0 * abs(sum(layers.values()) - root_s) / root_s
    ctx.check("self-times-add-up", gap_pct <= SELF_TIME_GAP_LIMIT_PCT,
              f"layer self times differ from the root spans by {gap_pct:.2f} %")
    doc["layers"] = layers
    doc["spans"] = len(tracer.spans)

    metrics = workload.layer_metrics(ctx)
    metrics.update(ctx.exact)   # the exact counts are layer metrics too
    metrics.update({
        "trace.overhead_pct": overhead_pct,
        "trace.self_time_gap_pct": gap_pct,
        "host.calib_ms": statistics.median(
            i.probe_s for i in meter.items) * 1e3,
        "host.speed_factor": meter.median_speed(),
        "host.nproc": float(os.cpu_count() or 1),
        "host.loadavg1": os.getloadavg()[0],
    })
    os.makedirs(args.out, exist_ok=True)
    tracer.dump(os.path.join(args.out, f"trace-{args.workload}.json"),
                extra={"workload": args.workload, "seed": args.seed,
                       "layers_self_s": layers, "self_s": self_s})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    doc, correct = run(args)
    print(json.dumps(doc))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
