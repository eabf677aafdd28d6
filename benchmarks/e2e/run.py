#!/usr/bin/env python3
"""The benchmark of record: six workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                      # all six, untraced
    python3 benchmarks/e2e/run.py --traced             # all six, per-layer
    python3 benchmarks/e2e/run.py --workload fleet-survey --seed 29
    python3 benchmarks/e2e/run.py --quick              # smoke sizes
    python3 benchmarks/e2e/run.py --repeat 10 --json-out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

The driver's form, one workload per call, is
``--workload NAME --seed N --seconds S --trace 0|1``; the last line of
standard output is then the result object ``BENCHMARK.json`` describes.
Every workload runs in a process of its own (``e2ebench.worker``).
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from e2ebench import compare  # noqa: E402  (needs HERE on the path)

DEFAULT_SEED = 11
HELD_OUT_SEED = 29
QUICK_SECONDS = 1.0
#: One worker may take this long before it is killed (the driver allows
#: a run 180 s).
WORKER_TIMEOUT_S = 170
#: Tracing overhead above this is a defect of the benchmark's taps.
TRACE_OVERHEAD_LIMIT_PCT = 15.0


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               quick: bool) -> dict | None:
    """Run one workload in its own process; its result document, or
    None when it died without one (its stderr has been passed on)."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([HERE, SRC]))
    # One fleet worker setting only: the benchmark's own.
    env.pop("REPRO_FLEET_WORKERS", None)
    env.pop("REPRO_EXPERIMENT_CACHE", None)
    argv = [sys.executable, "-m", "e2ebench.worker", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scratch", os.path.join(OUT, "tmp"),
            "--out", OUT]
    if quick:
        argv.append("--quick")
    try:
        done = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"e2e: {workload}: worker exceeded {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        print(f"e2e: {workload}: worker exited {done.returncode} without a "
              "result", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def contract_metrics(doc: dict, contract: dict) -> dict:
    """The result's metrics exactly as ``BENCHMARK.json`` declares them
    for this mode.  A layer the workload bypasses reads 0; a declared
    end-to-end metric that is missing is an error."""
    declared = contract["per_layer" if doc["trace"] else "end_to_end"]
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in doc["metrics"] and not doc["trace"]:
            raise KeyError(f"{doc['workload']}: worker reported no {name}")
        out[name] = {"value": doc["metrics"].get(name, 0.0),
                     "unit": spec["unit"]}
    return out


def print_result(doc: dict, contract: dict, warn_load: str) -> None:
    """Every metric by name with its unit, then checks and context."""
    mode = "traced" if doc["trace"] else "untraced"
    raw = doc["raw"]
    print(f"== {doc['workload']}  seed {doc['seed']}  {mode}"
          f"{'  QUICK (not comparable with full runs)' if doc['quick'] else ''}")
    print(f"   unit: {doc['unit']};  item: {doc['item']}")
    print(f"   {doc['rounds']} round(s), {raw['items']} items, "
          f"{raw['units']} units in {raw['wall_s']:.2f} s wall "
          f"= {raw['ref_s']:.2f} s at reference speed "
          f"(host speed factor {raw['speed_factor']:.2f}; set-up "
          f"{raw['setup_wall_s']:.2f} s wall, median of "
          f"{raw['setup_repeats']})")
    for name, metric in contract_metrics(doc, contract).items():
        if doc["trace"] and name not in doc["metrics"]:
            continue        # a bypassed layer: 0 in the result line only
        print(f"   {name:<36} {metric['value']:>16.6g} {metric['unit']}"
              f"{warn_load}")
    tail = doc["all_items"]
    if "tail" in tail:
        print(f"   item time p{tail['tail_q']:g} = {tail['tail']:.4g} ms "
              f"over n={tail['n']} (median {tail['p50']:.4g} ms)")
    else:
        print(f"   item time: n={tail['n']}, too few for a tail percentile "
              "(10 samples must lie beyond it)")
    for label, stats in doc["items"].items():
        print(f"     {label:<28} n={stats['n']:<3} p50 {stats['p50']:.4g} ms")
    if doc["trace"]:
        total = sum(doc["layers"].values())
        shares = ", ".join(f"{layer} {100 * s / total:.1f} %"
                           for layer, s in sorted(doc["layers"].items(),
                                                  key=lambda kv: -kv[1]))
        print(f"   layer self time: {shares}")
        overhead = doc["metrics"]["trace.overhead_pct"]
        if overhead > TRACE_OVERHEAD_LIMIT_PCT:
            print(f"   BENCHMARK DEFECT: tracing overhead {overhead:.1f} % "
                  f"is above {TRACE_OVERHEAD_LIMIT_PCT:g} %")
    else:
        for name, value in doc["exact"].items():
            print(f"   exact {name:<30} {value:.10g}")
    print(f"   sim_digest {doc['sim_digest']}")
    print("   failed ops: "
          f"{100.0 * doc['failed'] / doc['attempted']:.4g} % "
          f"({doc['failed']} of {doc['attempted']})")
    for check in doc["checks"]:
        print(f"   check {check['name']:<34} "
              f"{'ok' if check['ok'] else 'FAILED: ' + check['detail']}")
    print("   model: unvalidated against hardware (the repository holds no "
          "reference measurements), so no error figure is given")


def result_line(doc: dict, contract: dict) -> str:
    return json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"], "metrics": contract_metrics(doc, contract)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes; never compare with full runs")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each workload N times on seeds "
                             "SEED..SEED+N-1")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write every run's full record to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --json-out records and exit")
    args = parser.parse_args(argv)

    if args.compare:
        contract = load_contract()
        return compare.main(args.compare[0], args.compare[1], contract)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2e: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    for name in args.workload or []:
        if name not in names:
            parser.error(f"unknown workload {name!r}; known: {names}")
    selected = args.workload or names
    trace = 1 if args.traced else (args.trace or 0)
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else float(contract["run_seconds"]))

    load1, nproc = os.getloadavg()[0], os.cpu_count() or 1
    warn_load = ""
    if load1 > nproc:
        warn_load = f"   [host busy: loadavg1 {load1:.2f} > {nproc} cpus]"
        print(f"e2e: WARNING: loadavg1 {load1:.2f} exceeds {nproc} cpus; "
              "every row below is affected", file=sys.stderr)

    docs = []
    status = 0
    last_line = ""
    try:
        for seed in range(args.seed, args.seed + args.repeat):
            for name in selected:
                doc = run_worker(name, seed, seconds, trace, args.quick)
                if doc is None:
                    return 2
                docs.append(doc)
                print_result(doc, contract, warn_load)
                last_line = result_line(doc, contract)
                if len(selected) > 1 or args.repeat > 1:
                    print(last_line)
                if not doc["correct"]:
                    failed = [c["name"] for c in doc["checks"] if not c["ok"]]
                    print(f"e2e: {name}: output check(s) failed: "
                          f"{', '.join(failed)}", file=sys.stderr)
                    status = 1
    finally:
        try:    # workers empty their own scratch; drop the parent if idle
            os.rmdir(os.path.join(OUT, "tmp"))
        except OSError:
            pass
        if args.json_out and docs:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump({"runs": docs}, fh, indent=1)
                fh.write("\n")
    if len(selected) == 1 and args.repeat == 1:
        print(last_line)
    return status


if __name__ == "__main__":
    sys.exit(main())
