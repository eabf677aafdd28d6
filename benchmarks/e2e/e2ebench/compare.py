"""``run.py --compare A.json B.json``: do two sets of runs agree?

One row per (workload, end-to-end metric): both medians, the ratio B/A
with its base, the bound from ``BENCHMARK.json`` and a verdict.  The
rule is the one the choosing-metrics guide sets for landing a change:
where the run-to-run spread is wider than the bound the row is
``unresolved`` — unless every run of B reads better (or worse) than
every run of A.  Simulated statistics are compared exactly: any
``sim_digest`` or exact count that differs between the sets for the
same seed is listed and fails the comparison.
"""

from __future__ import annotations

import json
import statistics

from .stats import quartile_spread


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _values(runs: list[dict], workload: str, trace: int, metric: str):
    return [r["metrics"][metric] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def _spread(values: list[float]) -> float | None:
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    return quartile_spread(values)


def verdict(a: list[float], b: list[float], better: str, bound: float,
            judge_spread: bool = True) -> tuple[str, float, float | None]:
    """(verdict, worsening of B's median as a share of A's, spread).
    With *judge_spread* off the medians alone decide."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    spread = max(spreads) if spreads else None
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if (judge_spread and spread is not None and spread > bound
            and not (all_better or all_worse)):
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if worse_by < -bound:
        return "better", worse_by, spread
    return "same", worse_by, spread


def exact_mismatches(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    """Digests and exact counts that differ for the same
    (workload, seed, quick) between the two sets."""
    def key(run):
        return run["workload"], run["seed"], run["quick"]

    by_key = {}
    for run in runs_a:
        by_key.setdefault(key(run), run)
    out = []
    for run in runs_b:
        base = by_key.get(key(run))
        if base is None:
            continue
        where = f"{run['workload']} seed {run['seed']}"
        if base["sim_digest"] != run["sim_digest"]:
            out.append(f"{where}: sim_digest {base['sim_digest'][:12]} != "
                       f"{run['sim_digest'][:12]}")
        for name, value in base["exact"].items():
            if run["exact"].get(name) != value:
                out.append(f"{where}: exact {name} {value!r} != "
                           f"{run['exact'].get(name)!r}")
    return out


def main(path_a: str, path_b: str, contract: dict) -> int:
    runs_a, runs_b = _load(path_a), _load(path_b)
    print(f"A = {path_a} ({len(runs_a)} runs)   "
          f"B = {path_b} ({len(runs_b)} runs)")
    header = (f"{'workload':<14} {'metric':<18} {'median A':>12} "
              f"{'median B':>12} {'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    print(header)
    bad = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            a = _values(runs_a, workload, 0, spec["name"])
            b = _values(runs_b, workload, 0, spec["name"])
            if not a or not b:
                continue
            # Set-up is mostly one import per run; like the driver,
            # judge it by its medians and only print its spread.
            word, _worse_by, spread = verdict(
                a, b, spec["better"], spec["bound"],
                judge_spread=spec["name"] != "setup_s")
            bad += word in ("worse", "unresolved")
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:<14} {spec['name']:<18} {med_a:>12.5g} "
                  f"{med_b:>12.5g} {med_b / med_a:>7.3f} "
                  f"{'n/a' if spread is None else format(spread, '.3f'):>7} "
                  f"{spec['bound']:>6.2f}  {word}"
                  f"  (n={len(a)}/{len(b)}, base A {med_a:.5g} "
                  f"{spec['unit']})")
    mismatches = exact_mismatches(runs_a, runs_b)
    for line in mismatches:
        print("SIMULATED STATISTICS DIFFER:", line)
    failed_a = sum(r["failed"] for r in runs_a)
    failed_b = sum(r["failed"] for r in runs_b)
    print(f"failed operations: A {failed_a}, B {failed_b}")
    if not mismatches:
        print("simulated statistics: identical wherever both sets ran the "
              "same workload and seed")
    return 1 if bad or mismatches or failed_b > failed_a else 0
