"""The whole-program (``deep``) rules, SARIF, baseline, determinism.

Fixture packages under ``tests/fixtures/deeplint/`` carry one seeded
violation and one allowlisted case per DL rule (``dirty``) and a
conforming package (``clean``); the shipped ``src/repro`` tree itself
must be deep-clean with the committed (empty) baseline.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.simlint import (
    BaselineError,
    DeepLintError,
    apply_baseline,
    find_contract_root,
    lint_paths,
    load_baseline,
    render_sarif,
    rule_catalogue,
    write_baseline,
)
from repro.analysis.simlint.sarif import finding_fingerprint

TESTS = pathlib.Path(__file__).parent
FIXTURES = TESTS / "fixtures" / "deeplint"
DIRTY = FIXTURES / "dirty" / "pkg"
CLEAN = FIXTURES / "clean" / "pkg"
REPO = TESTS.parent
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def dirty():
    return lint_paths([DIRTY], deep=True)


def rules_at(findings, path_suffix):
    return [f.rule for f in findings if f.path.endswith(path_suffix)]


class TestDL101Telemetry:
    def test_undocumented_tracepoint_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL101"]
        assert any("'pkg.rogue'" in m and "tracepoint" in m for m in msgs)

    def test_allowlisted_tracepoint_suppressed(self, dirty):
        assert not any("pkg.hushed" in f.message for f in dirty)

    def test_undocumented_metric_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL101"]
        assert any("'pkg.unlisted'" in m for m in msgs)

    def test_kind_collision_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL101"]
        assert any("kind collision" in m and "'pkg.mismatch'" in m
                   for m in msgs)

    def test_documented_but_dead_name_anchored_in_docs(self, dirty):
        dead = [f for f in dirty if "pkg.dead" in f.message]
        assert len(dead) == 1
        assert dead[0].rule == "DL101"
        assert dead[0].path.endswith("docs/OBSERVABILITY.md")

    def test_pattern_name_matches_fstring_emission(self, dirty):
        # pkg.latency.{class} is emitted as f"pkg.latency.{cls}": no
        # undocumented-emission and no dead-name finding for it.
        assert not any("pkg.latency" in f.message for f in dirty)


class TestDL102Streams:
    def test_malformed_stream_name_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL102"]
        assert any("'nocolons'" in m for m in msgs)

    def test_allowlisted_stream_suppressed(self, dirty):
        assert not any("hush" in f.message for f in dirty)

    def test_escaping_stream_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL102"]
        assert any("escapes" in m and "leak()" in m for m in msgs)

    def test_conforming_stream_not_flagged(self, dirty):
        assert not any("streams:svc" in f.message for f in dirty)

    def test_seed_anywhere_in_dynamic_fields_is_accepted(self):
        # The shipped fault plan seeds fault:site:{server_seed}:{attempt}
        # — the seed is not the final field and that is fine.
        src = textwrap.dedent("""
            import random

            def draw(server_seed, attempt):
                rng = random.Random(
                    f"streams:crash:{server_seed}:{attempt}")
                return rng.random()
        """)
        assert self._lint_snippet(src) == []

    def test_integer_seeds_are_out_of_scope(self):
        src = textwrap.dedent("""
            import random

            def draw(seed):
                return random.Random(seed * 3).random()
        """)
        assert self._lint_snippet(src) == []

    @staticmethod
    def _lint_snippet(source):
        from repro.analysis.simlint.model import ProgramModel
        from repro.analysis.simlint.passes import RngStreamRule

        model = ProgramModel()
        model.add_source(source, "pkg/streams.py", "pkg.streams")
        model.build_indexes()
        return [f for f in RngStreamRule().check(model, None)]


class TestDL103ApiSurface:
    def test_deprecated_import_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL103"]
        assert any("pkg.api.OLD" in m for m in msgs)

    def test_deprecated_call_flagged_once_allowlisted_once(self, dirty):
        calls = [f for f in dirty
                 if f.rule == "DL103" and "old_helper()" in f.message]
        assert len(calls) == 1
        assert calls[0].path.endswith("pkg/uses.py")

    def test_missing_all_snapshot_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL103"]
        assert any("pkg.bare" in m and "__all__" in m for m in msgs)

    def test_unfrozen_front_door_config_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL103"]
        assert any("FrontConfig" in m and "frozen" in m for m in msgs)

    def test_live_shim_not_reported_missing(self, dirty):
        assert not any("no shim" in f.message for f in dirty)


class TestDL103ScenarioLibrary:
    """The fifth DL103 claim: a documented `.scenarios` front door must
    ship a structurally valid bundled library."""

    def _library(self, dirty):
        return [f for f in dirty
                if f.rule == "DL103" and "/library/" in f.path]

    def test_bad_stem_gets_three_findings(self, dirty):
        msgs = [f.message for f in self._library(dirty)
                if f.path.endswith("bad_stem.json")]
        assert any("kebab-case" in m for m in msgs)
        assert any("match the file stem" in m for m in msgs)
        assert any("'smoke' mapping" in m for m in msgs)
        assert len(msgs) == 3

    def test_loader_rejection_is_one_finding(self, dirty):
        hits = [f for f in self._library(dirty)
                if f.path.endswith("broken.json")]
        assert len(hits) == 1
        # The loader's message, minus the machine-specific path prefix
        # (the finding carries the root-relative one).
        assert hits[0].message == ("bundled scenario does not load: "
                                   "duplicate key 'experiment'")

    def test_stray_yaml_file_is_a_finding(self, dirty):
        hits = [f for f in self._library(dirty)
                if f.path.endswith("left-behind.yml")]
        assert len(hits) == 1
        assert "not JSON; `list_scenarios` will not see it" in hits[0].message

    def test_conforming_file_is_clean(self, dirty):
        assert not any(f.path.endswith("good-one.json")
                       for f in self._library(dirty))

    def test_undocumented_scenarios_module_not_checked(self):
        # CLEAN's API.md has no `.scenarios` section, so the library
        # contract stays unarmed there (asserted via zero findings in
        # TestCleanAndShippedTrees); the real tree documents
        # `repro.scenarios` and its 11 bundled files must stay clean.
        findings = lint_paths([SRC], deep=True)
        assert not any("/library/" in f.path for f in findings)


class TestDL104Determinism:
    def test_set_iteration_on_reachable_path_flagged(self, dirty):
        hits = [f for f in dirty
                if f.rule == "DL104" and "set iteration" in f.message]
        assert len(hits) == 1
        assert "_render()" in hits[0].message

    def test_id_call_on_reachable_path_flagged(self, dirty):
        hits = [f for f in dirty
                if f.rule == "DL104" and "id()" in f.message]
        assert len(hits) == 1

    def test_unreachable_function_not_flagged(self, dirty):
        assert not any("unrelated" in f.message for f in dirty)

    def test_allowlisted_iteration_suppressed(self, dirty):
        # The literal-set loop carries a disable comment: exactly one
        # set-iteration finding despite two set iterations in _render.
        hits = [f for f in dirty
                if f.rule == "DL104" and "set iteration" in f.message]
        assert len(hits) == 1


class TestCleanAndShippedTrees:
    def test_clean_fixture_has_zero_findings(self):
        assert lint_paths([CLEAN], deep=True) == []

    def test_shipped_tree_is_deep_clean(self):
        # The acceptance bar: repo code satisfies its own contracts
        # with no baseline debt.
        assert lint_paths([SRC], deep=True) == []

    def test_committed_baseline_is_empty(self):
        baseline = load_baseline(str(REPO / ".deeplint-baseline.json"))
        assert baseline.entries == ()

    def test_missing_docs_raise(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("X = 1\n")
        with pytest.raises(DeepLintError):
            lint_paths([tmp_path / "pkg"], deep=True)

    def test_unparsable_file_reports_one_sl000(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
            "### Tracepoint catalogue\n\n### Metric catalogue\n")
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "broken.py").write_text("def f(:\n")
        findings = lint_paths([pkg], deep=True)
        assert [(f.rule, f.path) for f in findings] == [
            ("SL000", "pkg/broken.py")]


class TestDeterminism:
    def test_two_runs_identical_findings(self):
        assert lint_paths([DIRTY], deep=True) == lint_paths([DIRTY], deep=True)

    def test_sarif_byte_identical_across_runs(self):
        docs = [render_sarif(lint_paths([DIRTY], deep=True),
                             rule_catalogue(deep=True))
                for _ in range(2)]
        assert docs[0] == docs[1]

    def test_json_byte_identical_across_runs(self):
        from repro.analysis.simlint import render_json

        docs = [render_json(lint_paths([DIRTY], deep=True)) for _ in range(2)]
        assert docs[0] == docs[1]


class TestSarif:
    def test_document_shape(self, dirty):
        doc = json.loads(render_sarif(dirty, rule_catalogue(deep=True)))
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-deeplint"
        rule_ids = [r["id"] for r in driver["rules"]]
        for code in ("SL001", "DL101", "DL102", "DL103", "DL104"):
            assert code in rule_ids
        assert run["results"], "dirty fixture must produce results"
        for result in run["results"]:
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            assert result["level"] == "error"
            assert result["message"]["text"]
            (loc,) = result["locations"]
            region = loc["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
            uri = loc["physicalLocation"]["artifactLocation"]["uri"]
            assert "\\" not in uri  # posix separators only
            assert result["partialFingerprints"]["reproDeeplint/v1"]

    def test_round_trip_is_stable(self, dirty):
        rendered = render_sarif(dirty, rule_catalogue(deep=True))
        reparsed = json.loads(rendered)
        assert json.dumps(reparsed, sort_keys=True, indent=2) + "\n" == \
            rendered

    def test_baselined_results_marked_suppressed(self, dirty):
        target = dirty[0]
        doc = json.loads(render_sarif(
            dirty, rule_catalogue(deep=True),
            frozenset({finding_fingerprint(target)})))
        flags = [("suppressions" in r) for r in doc["runs"][0]["results"]]
        assert flags.count(True) == 1


class TestBaseline:
    def test_write_load_apply_suppresses_everything(self, dirty,
                                                    tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(str(path), dirty)
        baseline = load_baseline(str(path))
        active, suppressed, stale = apply_baseline(dirty, baseline)
        assert active == []
        assert sorted(suppressed) == sorted(dirty)
        assert stale == []

    def test_line_number_changes_do_not_unsuppress(self, dirty,
                                                   tmp_path):
        from dataclasses import replace

        path = tmp_path / "baseline.json"
        write_baseline(str(path), dirty)
        moved = [replace(f, line=f.line + 40) for f in dirty]
        active, suppressed, stale = apply_baseline(
            moved, load_baseline(str(path)))
        assert active == []
        assert stale == []

    def test_stale_entries_reported(self, dirty, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(str(path), dirty)
        active, _suppressed, stale = apply_baseline(
            dirty[1:], load_baseline(str(path)))
        assert active == []
        assert len(stale) == 1
        assert stale[0]["message"] == dirty[0].message

    def test_no_baseline_passes_findings_through(self, dirty):
        active, suppressed, stale = apply_baseline(dirty, None)
        assert active == dirty
        assert suppressed == [] and stale == []

    def test_bad_baseline_rejected(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text("[not json")
        with pytest.raises(BaselineError):
            load_baseline(str(bad))
        bad.write_text('{"schema": 99, "suppressions": []}')
        with pytest.raises(BaselineError):
            load_baseline(str(bad))
        bad.write_text('{"schema": 1, "suppressions": [{"rule": "X"}]}')
        with pytest.raises(BaselineError):
            load_baseline(str(bad))


class TestContractRoot:
    def test_fixture_docs_shadow_repo_docs(self):
        root = find_contract_root([DIRTY])
        assert pathlib.Path(root) == FIXTURES / "dirty"

    def test_repo_root_found_from_src(self):
        assert pathlib.Path(find_contract_root([SRC])) == REPO


def _run_cli(*args, cwd=None):
    import os

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, text=True, cwd=cwd or str(REPO), env=env)


class TestCli:
    def test_dirty_fixture_fails_with_dl_findings(self):
        proc = _run_cli("--deep", "--json", str(DIRTY))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        rules = {f["rule"] for f in doc["findings"]}
        assert {"DL101", "DL102", "DL103", "DL104"} <= rules

    def test_shipped_tree_strict_exits_zero(self):
        proc = _run_cli("--deep", "--strict", "src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_sarif_stdout_parses(self):
        proc = _run_cli("--deep", "--sarif", "-", str(DIRTY))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"

    def test_write_baseline_then_rerun_is_clean(self, tmp_path):
        baseline = tmp_path / "b.json"
        first = _run_cli("--deep", "--write-baseline",
                         "--baseline", str(baseline), str(DIRTY))
        assert first.returncode == 0, first.stdout + first.stderr
        second = _run_cli("--deep", "--strict",
                          "--baseline", str(baseline), str(DIRTY))
        assert second.returncode == 0, second.stdout + second.stderr

    def test_strict_fails_on_stale_baseline_entry(self, tmp_path):
        baseline = tmp_path / "b.json"
        baseline.write_text(json.dumps({
            "schema": 1,
            "suppressions": [{"rule": "DL101", "path": "gone.py",
                              "message": "never matches"}],
        }))
        proc = _run_cli("--deep", "--strict",
                        "--baseline", str(baseline), "src/repro")
        assert proc.returncode == 1
        assert "stale baseline entry" in proc.stderr
        relaxed = _run_cli("--deep", "--baseline", str(baseline),
                           "src/repro")
        assert relaxed.returncode == 0
