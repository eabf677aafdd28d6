"""The whole-program (``deep``) rules, SARIF, determinism.

Fixture packages under ``tests/fixtures/deeplint/`` carry one seeded
violation and one allowlisted case per DL rule (``dirty``) and a
conforming package (``clean``); the shipped ``src/repro`` tree itself
must be deep-clean.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.simlint import (
    DeepLintError,
    find_contract_root,
    lint_paths,
    render_sarif,
    rule_catalogue,
)

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

    def test_a_module_constant_in_a_field_is_read_as_its_text(self):
        # DL101 and DL102 read strings through one model: a site kept in
        # a module constant is the literal it holds.
        src = textwrap.dedent("""
            import random

            SITE = "{site}"

            def draw(seed):
                return random.Random(f"{{SITE}}:arrivals:{{seed}}").random()
        """)
        assert self._lint_snippet(src.format(site="streams")) == []
        [finding] = self._lint_snippet(src.format(site="elsewhere"))
        assert finding.message.startswith(
            "stream site 'elsewhere' does not name its declaring module")

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
    def test_missing_all_snapshot_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL103"]
        assert any("pkg.bare" in m and "__all__" in m for m in msgs)

    def test_unfrozen_front_door_config_flagged(self, dirty):
        msgs = [f.message for f in dirty if f.rule == "DL103"]
        assert any("FrontConfig" in m and "frozen" in m for m in msgs)


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


class TestDL105DeadSurface:
    """A definition only a test reaches is one finding; naming it from
    an example or a door string clears it, and listing it in a
    documented ``__all__`` does not."""

    @staticmethod
    def tree(tmp_path, files=None):
        files = {
            "pkg/__init__.py": "",
            "pkg/mod.py": ('__all__ = ["helper"]\n\n\n'
                           "def helper():\n    return 1\n"),
            "tests/test_mod.py": ("from pkg.mod import helper\n\n\n"
                                  "def test_helper():\n"
                                  "    assert helper() == 1\n"),
            "docs/OBSERVABILITY.md": "# Observability\n",
            "docs/API.md": "# API\n",
            **(files or {}),
        }
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return [(f.path, f.line, f.message.split()[0])
                for f in lint_paths([tmp_path], deep=True)
                if f.rule == "DL105"]

    def test_function_reached_only_by_a_test_is_one_finding(self,
                                                             tmp_path):
        # pkg.mod is undocumented, so its __all__ names nothing.
        assert self.tree(tmp_path) == [("pkg/mod.py", 4, "helper")]

    @pytest.mark.parametrize("root", [
        {"examples/use.py": "from pkg.mod import helper\nhelper()\n"},
        {"pkg/doors.py": 'DOORS = ["pkg.mod:helper"]\n'},
    ], ids=["example", "door-string"])
    def test_named_from_a_root_is_no_finding(self, tmp_path, root):
        assert self.tree(tmp_path, files=root) == []

    def test_a_documented_all_is_not_a_root(self, tmp_path):
        """docs/API.md documents ``pkg.mod``, whose ``__all__`` lists
        ``helper``: a documented name only a test calls is still dead."""
        docs = {"docs/API.md": "# API\n\n## `pkg.mod` — the surface\n"}
        assert self.tree(tmp_path, files=docs) == [
            ("pkg/mod.py", 4, "helper")]

    def test_dirty_fixture_flags_its_test_only_documented_name(self, dirty):
        """``pkg.api`` is documented and lists ``only_tested`` in its
        ``__all__``; only the fixture's test calls it."""
        hits = [f for f in dirty if f.rule == "DL105"]
        assert [(f.path.rsplit("/", 1)[-1], f.message.split()[0])
                for f in hits] == [("api.py", "only_tested"),
                                   ("dead.py", "orphan")]

    def test_method_needs_its_class_and_its_name(self, tmp_path):
        files = {
            "pkg/mod.py": ("class Engine:\n"
                           "    def __init__(self):\n"
                           "        self.n = 0\n\n"
                           "    def run(self):\n"
                           "        return self.n\n\n"
                           "    def only_tested(self):\n"
                           "        return -1\n\n\n"
                           "class Unused:\n"
                           "    def run(self):\n"
                           "        return 0\n"),
            "tests/test_mod.py": "",
            "examples/use.py": ("from pkg.mod import Engine\n"
                                "Engine().run()\n"),
        }
        # Engine.run is named and its class reached; the dead class is
        # one finding, not one per method.
        assert self.tree(tmp_path, files=files) == [
            ("pkg/mod.py", 8, "Engine.only_tested"),
            ("pkg/mod.py", 12, "Unused")]


class TestCleanAndShippedTrees:
    def test_clean_fixture_has_zero_findings(self):
        assert lint_paths([CLEAN], deep=True) == []

    def test_shipped_tree_is_deep_clean(self):
        # The acceptance bar: repo code satisfies its own contracts.
        assert lint_paths([SRC], deep=True) == []

    def test_the_linter_imports_only_the_stdlib_and_repro_errors(self):
        # The linter reads the package it checks; it never imports it.
        from repro.analysis.simlint.model import ModuleInfo, module_name

        for path in sorted((SRC / "analysis" / "simlint").glob("*.py")):
            info = ModuleInfo(path.read_text(encoding="utf-8"), str(path),
                              module_name(str(path)))
            for target in info.imports.values():
                if target.startswith("repro."):
                    assert target.startswith(("repro.analysis.simlint.",
                                              "repro.errors.")), target
                else:
                    top = target.partition(".")[0]
                    assert top in sys.stdlib_module_names, target

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
        for code in ("SL001", "DL101", "DL102", "DL103", "DL104", "DL105"):
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
        assert {"DL101", "DL102", "DL103", "DL104", "DL105"} <= rules

    def test_shipped_tree_exits_zero(self):
        proc = _run_cli("--deep", "src/repro")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_sarif_stdout_parses(self):
        proc = _run_cli("--deep", "--sarif", "-", str(DIRTY))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
