"""``benchmarks/perf/ledger.py``: the committed trajectory of the
benchmark of record (ROADMAP item 1, "ledger first")."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perf_ledger", os.path.join(ROOT, "benchmarks", "perf", "ledger.py"))
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

CONTRACT = ledger.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_record(workload="server-aging", seed=11, throughput=900.0,
               digest="d" * 64, **extra) -> dict:
    """One untraced run as ``run.py --json-out`` writes it (the fields
    the ledger reads)."""
    return {"workload": workload, "seed": seed, "trace": 0, "quick": False,
            "sim_digest": digest, "failed": 0, "attempted": 8,
            "metrics": {"setup_s": 0.4, "throughput_per_s": throughput,
                        "unit_us_p50": 1e6 / throughput,
                        "peak_rss_mib": 60.0},
            "raw": {"speed_factor": 0.9}, **extra}


def traced_record(workload="durable-run", seed=11, **layer_metrics) -> dict:
    """One traced run: its ``metrics`` are the per-layer ones."""
    return {"workload": workload, "seed": seed, "trace": 1, "quick": False,
            "metrics": layer_metrics}


def write_runs(path, runs) -> str:
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


class TestAppend:
    def test_one_row_per_workload_with_medians_and_the_lowest_seed(self):
        runs = [run_record(seed=13, throughput=880.0, digest="c" * 64),
                run_record(seed=11, throughput=900.0, digest="a" * 64),
                run_record(seed=12, throughput=940.0, digest="b" * 64),
                run_record("kernel-replay", throughput=5e4),
                run_record(trace=1), run_record(quick=True)]
        rows = ledger.rows_from_runs(runs, CONTRACT, pr=17, sha="abc1234")
        assert [r["workload"] for r in rows] == ["server-aging",
                                                 "kernel-replay"]
        row = rows[0]
        assert (row["runs"], row["seed"], row["sim_digest"]) == (
            3, 11, "a" * 64)
        assert row["metrics"]["throughput_per_s"] == 900.0
        assert row["samples"]["throughput_per_s"] == [900.0, 940.0, 880.0]
        assert row["host"]["calib_ms"] == pytest.approx(0.72)
        assert row["host"]["nproc"] >= 1
        ledger.check_row(row, CONTRACT, "row")

    def test_append_then_report_judges_against_the_previous_row(
            self, tmp_path, capsys):
        history = str(tmp_path / "history.jsonl")
        slow = write_runs(tmp_path / "a.json", [
            run_record(seed=s, throughput=900.0 + s) for s in (11, 12, 13)])
        fast = write_runs(tmp_path / "b.json", [
            run_record(seed=s, throughput=1250.0 + s) for s in (11, 12, 13)])
        for path, pr in ((slow, 16), (fast, 17)):
            assert ledger.main(["--history", history, "append", path,
                                "--pr", str(pr), "--sha", "f" * 40]) == 0
        capsys.readouterr()
        assert ledger.main(["--history", history, "report"]) == 0
        out = capsys.readouterr().out
        assert "PR 16" in out and "PR 17" in out
        line = next(ln for ln in out.splitlines()
                    if "throughput_per_s" in ln and "of PR 16" in ln)
        assert "1.384x of PR 16's 912 " in line     # 1262 / 912 medians
        assert line.endswith("better")
        assert "sim_digest identical to PR 16" in out

    def test_traced_runs_become_the_rows_layer_medians(self, tmp_path,
                                                       capsys):
        """Non-zero declared per-layer metrics only, and only on the
        workload that was traced; several records append as one."""
        history = str(tmp_path / "history.jsonl")
        parent = write_runs(tmp_path / "a.json", [
            run_record("durable-run", throughput=230.0),
            run_record("server-aging"),
            traced_record(**{"checkpoint.overhead_x": 6.5,
                             "checkpoint.bytes": 4964205.0})])
        untraced = write_runs(tmp_path / "b.json", [
            run_record("durable-run", throughput=420.0),
            run_record("server-aging")])
        traced = write_runs(tmp_path / "c.json", [
            traced_record(seed=s, **{"checkpoint.overhead_x": x,
                                     "mm.alloc_fail": 0.0,
                                     "not.declared": 1.0})
            for s, x in ((11, 3.4), (12, 3.6), (13, 3.5))])
        assert ledger.main(["--history", history, "append", parent,
                            "--pr", "17", "--sha", "a" * 40]) == 0
        assert ledger.main(["--history", history, "append", untraced, traced,
                            "--pr", "18", "--sha", "b" * 40]) == 0
        rows = ledger.load_history(history, CONTRACT)
        layers = {(r["pr"], r["workload"]): r.get("layers") for r in rows}
        assert layers == {
            (17, "server-aging"): None, (18, "server-aging"): None,
            (17, "durable-run"): {"checkpoint.overhead_x": 6.5,
                                  "checkpoint.bytes": 4964205.0},
            (18, "durable-run"): {"checkpoint.overhead_x": 3.5}}
        capsys.readouterr()
        assert ledger.main(["--history", history, "report"]) == 0
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines()
                    if "checkpoint.overhead_x" in ln and "PR 17" in ln)
        assert line.split() == ["checkpoint.overhead_x", "3.5", "x",
                                "(PR", "17:", "6.5)"]
        assert "4.9642e+06 count" in out

    def test_tier1_seconds_and_count_ride_on_every_row(self, tmp_path,
                                                       capsys):
        history = str(tmp_path / "history.jsonl")
        runs = write_runs(tmp_path / "a.json", [
            run_record("durable-run"), run_record("server-aging")])
        assert ledger.main(["--history", history, "append", runs,
                            "--pr", "24", "--sha", "a" * 40]) == 0
        assert ledger.main(["--history", history, "append", runs,
                            "--pr", "25", "--sha", "b" * 40,
                            "--tier1", "33.5", "1262"]) == 0
        rows = ledger.load_history(history, CONTRACT)
        assert [r.get("tier1") for r in rows] == [None, None] + [
            {"seconds": 33.5, "tests": 1262}] * 2
        capsys.readouterr()
        assert ledger.main(["--history", history, "report"]) == 0
        out = capsys.readouterr().out
        assert out.count("tier1    1,262 tests in 33.5 s") == 2

    @pytest.mark.parametrize("seconds, count", [
        ("0", "1262"), ("fast", "1262"), ("33.5", "12.5"), ("inf", "1"),
        ("33.5", "-1")])
    def test_a_bad_tier1_is_refused_before_anything_is_written(
            self, tmp_path, capsys, seconds, count):
        history = tmp_path / "history.jsonl"
        runs = write_runs(tmp_path / "a.json", [run_record()])
        assert ledger.main(["--history", str(history), "append", runs,
                            "--pr", "25", "--sha", "s",
                            "--tier1", seconds, count]) == 1
        assert "--tier1" in capsys.readouterr().err
        assert not history.exists()

    def test_the_verify_verdict_rides_beside_the_digest(self, tmp_path,
                                                         capsys):
        """``--verify`` reads ``repro experiment verify --all --json``."""
        history = str(tmp_path / "history.jsonl")
        runs = write_runs(tmp_path / "a.json", [run_record()])
        verdicts = tmp_path / "verify.json"
        verdicts.write_text(json.dumps(
            [{"spec": "fig13-unavailable", "claim": "copy-cycles",
              "seeds": [0, 1, 2], "held": True},
             {"spec": "fig11-unmovable", "claim": "linux-average",
              "seeds": [42, 43, 44], "held": False}]))
        assert ledger.main(["--history", history, "append", runs,
                            "--pr", "31", "--sha", "c" * 40,
                            "--verify", str(verdicts)]) == 0
        row, = ledger.load_history(history, CONTRACT)
        assert row["verify"] == {"claims": 2, "held": 1, "seeds": 3}
        capsys.readouterr()
        assert ledger.main(["--history", history, "report"]) == 0
        assert "verify 1/2 claims held on 3 seeds" in capsys.readouterr().out
        for bad in ("{oops", "[]", '[{"held": true}]'):
            verdicts.write_text(bad)
            assert ledger.main(["--history", history, "append", runs,
                                "--pr", "32", "--sha", "d" * 40,
                                "--verify", str(verdicts)]) == 1
            assert "verify --json" in capsys.readouterr().err
        assert len(ledger.load_history(history, CONTRACT)) == 1

    def test_a_record_with_no_full_untraced_run_is_refused(self, tmp_path,
                                                           capsys):
        path = write_runs(tmp_path / "q.json", [run_record(quick=True)])
        history = tmp_path / "history.jsonl"
        assert ledger.main(["--history", str(history), "append", path,
                            "--pr", "1", "--sha", "x"]) == 1
        assert "no full-size untraced run" in capsys.readouterr().err
        assert not history.exists()


class TestReportValidates:
    @pytest.mark.parametrize("damage, message", [
        (lambda row: row.pop("sim_digest"), "'sim_digest' missing"),
        (lambda row: row["metrics"].update(unit_us_p50="fast"),
         "metric 'unit_us_p50' missing"),
        (lambda row: row["samples"]["setup_s"].pop(), "samples of 'setup_s'"),
        (lambda row: row.update(workload="server-ageing"),
         "unknown workload"),
        (lambda row: row["host"].pop("calib_ms"), "host.calib_ms"),
        (lambda row: row.update(layers={"checkpoint.bytes": "big"}),
         "layers['checkpoint.bytes']"),
        (lambda row: row.update(layers={"checkpoint.speed": 1.0}),
         "layers['checkpoint.speed']"),
        (lambda row: row.update(tier1={"seconds": 30.0}), "'tier1'"),
        (lambda row: row.update(tier1={"seconds": 30.0, "tests": 1.5}),
         "'tier1'"),
        (lambda row: row.update(verify={"claims": 2, "held": 3,
                                        "seeds": 3}), "'verify'"),
        (lambda row: row.update(verify={"claims": 2, "held": 2}),
         "'verify'"),
    ])
    def test_a_malformed_row_fails_the_report(self, tmp_path, capsys,
                                              damage, message):
        row = ledger.rows_from_runs([run_record()], CONTRACT, 1, "s")[0]
        damage(row)
        history = tmp_path / "history.jsonl"
        history.write_text(json.dumps(row) + "\n")
        assert ledger.main(["--history", str(history), "report"]) == 1
        assert message in capsys.readouterr().err

    def test_a_line_that_is_not_json_names_its_line(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        good = ledger.rows_from_runs([run_record()], CONTRACT, 1, "s")[0]
        history.write_text(json.dumps(good) + "\n{oops\n")
        assert ledger.main(["--history", str(history), "report"]) == 1
        assert "history.jsonl:2: not JSON" in capsys.readouterr().err


class TestCommittedHistory:
    def test_every_workload_has_a_parent_row_and_a_later_one(self):
        rows = ledger.load_history(ledger.HISTORY, CONTRACT)
        for workload in WORKLOADS:
            prs = [r["pr"] for r in rows if r["workload"] == workload]
            assert len(prs) >= 2 and prs == sorted(prs), (workload, prs)
