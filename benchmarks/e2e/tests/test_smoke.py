"""``run.py --quick`` end to end: schema against ``BENCHMARK.json``."""

import json
import os
import subprocess
import sys
import time

import pytest

from conftest import E2E, ROOT

RUN = os.path.join(E2E, "run.py")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_contract_file_has_exactly_the_drivers_keys(contract):
    assert sorted(contract) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert contract["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in contract["end_to_end"]]
    assert "setup_s" in names
    for metric in contract["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    every = names + [m["name"] for m in contract["per_layer"]]
    assert len(every) == len(set(every))
    assert 2 <= len(contract["workloads"]) <= 8
    for workload in contract["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def _result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def _check_results(results, contract, section):
    declared = {m["name"]: m["unit"] for m in contract[section]}
    assert len(results) == len(contract["workloads"])
    for result in results:
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(declared)
        for name, metric in result["metrics"].items():
            assert sorted(metric) == ["unit", "value"]
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))
            if section == "end_to_end":
                assert metric["value"] > 0, name      # never 0


def test_quick_run_of_all_six_matches_the_contract(contract):
    start = time.monotonic()
    done = subprocess.run([sys.executable, RUN, "--quick"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr + done.stdout[-2000:]
    assert elapsed < 30, f"--quick took {elapsed:.1f} s"
    _check_results(_result_lines(done.stdout), contract, "end_to_end")
    for metric in contract["end_to_end"]:          # printed by name
        assert metric["name"] in done.stdout
    assert "sim_digest" in done.stdout
    assert "unvalidated against hardware" in done.stdout


def test_quick_traced_run_reports_every_layer_metric(contract):
    done = subprocess.run([sys.executable, RUN, "--quick", "--traced"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode == 0, done.stderr + done.stdout[-2000:]
    results = _result_lines(done.stdout)
    _check_results(results, contract, "per_layer")
    # Each layer is exercised by at least one workload.
    for metric in contract["per_layer"]:
        if metric["name"] in ("mm.compact_pages_migrated", "mm.alloc_fail",
                              "mm.pages_reclaimed",
                              "core.replay_skipped_calls",
                              "trace.self_time_gap_pct"):
            continue        # legitimately 0 on healthy quick runs
        assert any(r["metrics"][metric["name"]]["value"] != 0
                   for r in results), metric["name"]
    for name in ("server-aging", "kernel-replay"):
        assert os.path.isfile(os.path.join(E2E, "out", f"trace-{name}.json"))


def test_driver_form_ends_with_the_result_line(contract):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "loadgen-burst", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last["metrics"]) == sorted(
        m["name"] for m in contract["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree that holds only the benchmark, exit non-zero and print
    no result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "server-aging", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
