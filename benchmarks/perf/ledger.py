#!/usr/bin/env python3
"""The committed trajectory of the benchmark of record.

    python3 benchmarks/e2e/run.py --repeat 5 --json-out run.json
    python3 benchmarks/e2e/run.py --traced --workload durable-run --json-out traced.json
    PYTHONPATH=src python3 -m repro experiment verify --all --json > verify.json
    python3 benchmarks/perf/ledger.py append run.json traced.json --pr N --sha "$(git rev-parse HEAD)" --tier1 SECONDS COUNT --verify verify.json
    python3 benchmarks/perf/ledger.py report

``history.jsonl`` beside this file is append-only: one JSON object per
line, one line per PR per workload — the median of each end-to-end
metric ``BENCHMARK.json`` declares (with the samples behind it),
round 0's ``sim_digest`` on the lowest seed run, the host's speed
factor and probe time, its CPU count and the git sha measured.  When
the appended records also hold *traced* runs of a workload, its row
carries an optional ``"layers"`` object: the median of every per-layer
metric ``BENCHMARK.json`` declares that the workload reported non-zero
(``checkpoint.overhead_x``, ``workloads.driver_share_pct``, ...), so
the numbers a roadmap gate is written in live here and not in prose.
``--tier1 SECONDS COUNT`` records the Tier-1 suite's wall seconds and
test count for the tree measured, as every appended row's optional
``"tier1"`` object, so "the tests did not get slower" is a row too.
``--verify FILE`` reads ``repro experiment verify --all --json`` for
the same tree and records its verdict as every row's optional
``"verify"`` object (claims, claims held, seeds), beside the digest: a
row may change ``sim_digest`` on purpose only when every claim held.
``report`` prints every workload's rows oldest first and judges each
against the row before it with ``e2ebench.compare.verdict``, the rule
``run.py --compare`` applies, so "better" here means what it means
there.  A row that does not parse, lacks a field or carries a
non-number makes ``report`` exit 1 (the CI step); a ``worse`` verdict
does not, because the ledger records what happened.  A PR measuring
its own not-yet-committed tree passes ``--sha "src:$(git write-tree
--prefix=src/)"`` after ``git add -A``; once it is committed,
``git rev-parse <commit>:src`` reproduces that id.

Stdlib only, and nothing here imports the simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
HISTORY = os.path.join(HERE, "history.jsonl")
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))

from e2ebench.compare import verdict  # noqa: E402  (needs the path above)
from e2ebench.meter import PROBE_REF_S  # noqa: E402


class LedgerError(ValueError):
    """A run record or ledger row that cannot be used."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def rows_from_runs(runs: list[dict], contract: dict, pr: int,
                   sha: str, tier1: dict | None = None,
                   verify: dict | None = None) -> list[dict]:
    """One ledger row per workload from ``run.py --json-out`` records:
    the end-to-end metrics from its untraced runs and, when there are
    traced runs of it too, their per-layer medians under ``layers``;
    *tier1* (``{"seconds", "tests"}``) and *verify* (``{"claims",
    "held", "seeds"}``) ride on every row."""
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        full = [r for r in runs
                if r["workload"] == workload and not r["quick"]]
        mine = sorted((r for r in full if not r["trace"]),
                      key=lambda r: r["seed"])
        if not mine:
            continue
        layers = {}
        for name in (spec["name"] for spec in contract["per_layer"]):
            values = [r["metrics"][name] for r in full
                      if r["trace"] and r["metrics"].get(name)]
            if values:
                layers[name] = statistics.median(values)
        samples = {spec["name"]: [r["metrics"][spec["name"]] for r in mine]
                   for spec in contract["end_to_end"]}
        speed = statistics.median(r["raw"]["speed_factor"] for r in mine)
        rows.append({
            "pr": pr, "sha": sha, "workload": workload,
            "seed": mine[0]["seed"], "runs": len(mine),
            "metrics": {name: statistics.median(values)
                        for name, values in samples.items()},
            "samples": samples,
            "sim_digest": mine[0]["sim_digest"],
            "failed": sum(r["failed"] for r in mine),
            "attempted": sum(r["attempted"] for r in mine),
            "host": {"speed_factor": speed,
                     "calib_ms": speed * PROBE_REF_S * 1e3,
                     "nproc": os.cpu_count() or 1},
            **({"layers": layers} if layers else {}),
            **({"tier1": tier1} if tier1 else {}),
            **({"verify": verify} if verify else {}),
        })
    if not rows:
        raise LedgerError("no full-size untraced run in the record")
    return rows


def check_row(row, contract: dict, where: str) -> None:
    """Raise :class:`LedgerError` unless *row* has every field with the
    type ``report`` relies on."""
    def need(cond: bool, what: str) -> None:
        if not cond:
            raise LedgerError(f"{where}: {what}")

    def number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    need(isinstance(row, dict), "not a JSON object")
    for key, kind in (("pr", int), ("sha", str), ("workload", str),
                      ("seed", int), ("runs", int), ("sim_digest", str),
                      ("failed", int), ("attempted", int),
                      ("metrics", dict), ("samples", dict), ("host", dict)):
        need(isinstance(row.get(key), kind), f"{key!r} missing or not "
             f"{kind.__name__}")
    need(row["workload"] in {w["name"] for w in contract["workloads"]},
         f"unknown workload {row['workload']!r}")
    for spec in contract["end_to_end"]:
        name = spec["name"]
        need(number(row["metrics"].get(name)), f"metric {name!r} missing")
        values = row["samples"].get(name)
        need(isinstance(values, list) and len(values) == row["runs"]
             and all(number(v) for v in values),
             f"samples of {name!r} do not hold {row['runs']} numbers")
    for key in ("speed_factor", "calib_ms", "nproc"):
        need(number(row["host"].get(key)), f"host.{key} missing")
    layers = row.get("layers", {})
    need(isinstance(layers, dict), "'layers' is not an object")
    declared = {spec["name"] for spec in contract["per_layer"]}
    for name, value in layers.items():
        need(name in declared and number(value),
             f"layers[{name!r}] is not a declared per-layer number")
    if "tier1" in row:
        tier1 = row["tier1"]
        need(isinstance(tier1, dict) and set(tier1) == {"seconds", "tests"}
             and number(tier1["seconds"]) and tier1["seconds"] > 0
             and type(tier1["tests"]) is int and tier1["tests"] > 0,
             "'tier1' is not {\"seconds\": > 0, \"tests\": int > 0}")
    if "verify" in row:
        verify = row["verify"]
        need(isinstance(verify, dict)
             and set(verify) == {"claims", "held", "seeds"}
             and all(type(verify[key]) is int for key in verify)
             and 0 <= verify["held"] <= verify["claims"]
             and verify["claims"] > 0 and verify["seeds"] > 0,
             "'verify' is not {\"claims\": int > 0, \"held\": int <= "
             "claims, \"seeds\": int > 0}")


def load_history(path: str, contract: dict) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{os.path.basename(path)}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LedgerError(f"{where}: not JSON ({exc})") from None
            check_row(row, contract, where)
            rows.append(row)
    return rows


def parse_tier1(seconds: str, tests: str) -> dict:
    try:
        tier1 = {"seconds": float(seconds), "tests": int(tests)}
    except ValueError:
        tier1 = {}
    if not (tier1 and 0 < tier1["seconds"] < float("inf")
            and tier1["tests"] > 0):
        raise LedgerError(f"--tier1 {seconds} {tests}: want SECONDS > 0 "
                          f"and a test COUNT > 0")
    return tier1


def parse_verify(path: str) -> dict:
    """The verdict of one ``repro experiment verify --json`` record:
    how many claims it judged, how many held on every seed, and the
    fewest seeds any claim was judged on."""
    try:
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
        verify = {"claims": len(records),
                  "held": sum(record["held"] is True for record in records),
                  "seeds": min(len(record["seeds"]) for record in records)}
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"{path}: not a `repro experiment verify --json` "
                          f"record ({exc!r})") from None
    if not verify["seeds"]:
        raise LedgerError(f"{path}: a claim was judged on no seed")
    return verify


def append(run_paths: list[str], pr: int, sha: str, history: str,
           tier1: dict | None = None, verify: dict | None = None) -> None:
    contract = load_contract()
    where = ", ".join(run_paths)
    try:
        runs = []
        for run_path in run_paths:
            with open(run_path, encoding="utf-8") as fh:
                runs += json.load(fh)["runs"]
        rows = rows_from_runs(runs, contract, pr, sha, tier1, verify)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise LedgerError(f"{where}: not a run.py --json-out record "
                          f"({exc!r})") from None
    for row in rows:
        check_row(row, contract, f"{where}: {row['workload']}")
    with open(history, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"ledger: appended {len(rows)} row(s) for PR {pr} "
          f"({sha[:12]}) to {history}")


def report(history: str) -> None:
    contract = load_contract()
    rows = load_history(history, contract)
    specs = contract["end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in contract["per_layer"]}
    print(f"{len(rows)} row(s) in {history}; each row is judged against "
          "the one above it (B/A with A = previous row)")
    for workload in (w["name"] for w in contract["workloads"]):
        mine = [r for r in rows if r["workload"] == workload]
        if not mine:
            continue
        print(f"== {workload}")
        prev = None
        for row in mine:
            host = row["host"]
            print(f"   PR {row['pr']:<3} {row['sha'][:12]:<12} seed {row['seed']} "
                  f"x{row['runs']}  digest {row['sim_digest'][:12]}  "
                  f"failed {row['failed']}/{row['attempted']}  "
                  f"host x{host['speed_factor']:.2f} "
                  f"({host['calib_ms']:.2f} ms probe, {host['nproc']} cpu)")
            for spec in specs:
                name = spec["name"]
                line = (f"      {name:<18} {row['metrics'][name]:>12.5g} "
                        f"{spec['unit']:<4}")
                if prev is not None:
                    word, _worse_by, _spread = verdict(
                        prev["samples"][name], row["samples"][name],
                        spec["better"], spec["bound"],
                        judge_spread=name != "setup_s")
                    base = prev["metrics"][name]
                    line += (f" {row['metrics'][name] / base:>6.3f}x of "
                             f"PR {prev['pr']}'s {base:.5g}  {word}")
                print(line)
            if "tier1" in row:
                print(f"      tier1 {row['tier1']['tests']:>8,} tests in "
                      f"{row['tier1']['seconds']:.1f} s")
            for name, value in row.get("layers", {}).items():
                line = f"      {name:<34} {value:>12.5g} {units[name]:<5}"
                if prev is not None and name in prev.get("layers", {}):
                    line += (f" (PR {prev['pr']}: "
                             f"{prev['layers'][name]:.5g})")
                print(line)
            if prev is not None and prev["seed"] == row["seed"]:
                same = prev["sim_digest"] == row["sim_digest"]
                print("      sim_digest "
                      + ("identical to" if same else "DIFFERS from")
                      + f" PR {prev['pr']}")
            if "verify" in row:
                verify = row["verify"]
                print(f"      verify {verify['held']}/{verify['claims']} "
                      f"claims held on {verify['seeds']} seeds")
            prev = row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--history", default=HISTORY, metavar="FILE",
                        help="the ledger file (default: history.jsonl "
                             "beside this script)")
    sub = parser.add_subparsers(dest="verb", required=True)
    add = sub.add_parser("append", help="append one row per workload "
                         "from a run.py --json-out record")
    add.add_argument("run", metavar="run.json", nargs="+",
                     help="one or more records; traced runs among them "
                          "become the rows' per-layer medians")
    add.add_argument("--pr", type=int, required=True)
    add.add_argument("--sha", required=True)
    add.add_argument("--tier1", nargs=2, metavar=("SECONDS", "COUNT"),
                     help="Tier-1 wall seconds and test count of the "
                          "tree measured")
    add.add_argument("--verify", metavar="FILE",
                     help="`repro experiment verify --all --json` output "
                          "for the tree measured")
    sub.add_parser("report", help="print the trajectory with verdicts")
    args = parser.parse_args(argv)
    try:
        if args.verb == "append":
            append(args.run, args.pr, args.sha, args.history,
                   parse_tier1(*args.tier1) if args.tier1 else None,
                   parse_verify(args.verify) if args.verify else None)
        else:
            report(args.history)
    except (LedgerError, OSError) as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
