"""One linter: a single parse, a single path spelling, a single runner.

What holds only because the per-file (SL) and whole-program (DL) rules
share one engine: each file is parsed once, a file that does not parse
is reported once, a finding names its file the same way whichever rule
raised it, and the baseline flags work with and without ``--deep``.
The CLI output over the fixture packages is pinned byte for byte.
"""

import ast
import collections
import json
import os
import pathlib

import pytest

from repro.analysis.simlint import lint_paths
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "deeplint"
GOLDEN = FIXTURES / "golden"

OBSERVABILITY = "### Tracepoint catalogue\n\n### Metric catalogue\n"


def run_lint(capsys, *argv):
    """``repro lint ARGV`` in-process: (exit status, stdout, stderr)."""
    status = 0
    try:
        main(["lint", *map(str, argv)])
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture
def tree(tmp_path):
    """A contract root holding one package with one SL005 finding and
    one DL102 finding in the same file, plus a file that does not
    parse."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(OBSERVABILITY)
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import random\n"
        "\n"
        "\n"
        "def f(seed, xs=[]):\n"
        "    return random.Random('nocolons'), xs\n")
    (pkg / "broken.py").write_text("def f(:\n")
    return tmp_path


@pytest.fixture
def loose(tmp_path):
    """One violating file with no contract root above it."""
    target = tmp_path / "bad.py"
    target.write_text("def f(xs=[]):\n    return xs\n")
    return target


class TestParseOnce:
    def test_deep_run_parses_each_file_exactly_once(self, monkeypatch,
                                                    capsys):
        parsed = collections.Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        status, _out, _err = run_lint(capsys, "--deep", FIXTURES / "dirty")
        assert status == 1
        root = FIXTURES / "dirty"
        files = [p.relative_to(root).as_posix()
                 for p in sorted(root.rglob("*.py"))]
        assert len(files) == 12
        assert parsed == {name: 1 for name in files}


class TestGoldenOutput:
    """Text, JSON and SARIF over the fixture packages, byte for byte.
    The goldens are the parent commit's output minus the retired DL100
    catalogue row (which shifts the SARIF ``ruleIndex`` of DL results
    down by one)."""

    @pytest.mark.parametrize("fixture,status", [("dirty", 1), ("clean", 0)])
    @pytest.mark.parametrize("flags,ext", [
        ((), "txt"), (("--json",), "json"), (("--sarif", "-"), "sarif")])
    def test_cli_output_matches_golden(self, capsys, fixture, status,
                                       flags, ext):
        got, out, err = run_lint(capsys, "--deep", *flags,
                                 FIXTURES / fixture)
        assert got == status
        assert err == ""
        assert out == (GOLDEN / f"{fixture}.{ext}").read_text()


class TestOneParseError:
    def test_unparsable_file_is_one_sl000_under_deep(self, tree, capsys):
        status, out, _err = run_lint(capsys, "--deep", "--json",
                                     tree / "pkg")
        assert status == 1
        broken = [f for f in json.loads(out)["findings"]
                  if f["path"].endswith("broken.py")]
        assert [(f["rule"], f["path"]) for f in broken] == [
            ("SL000", "pkg/broken.py")]

    def test_dl100_is_retired_from_the_sarif_rule_list(self, tree, capsys):
        _status, out, _err = run_lint(capsys, "--deep", "--sarif", "-",
                                      tree / "pkg")
        rules = json.loads(out)["runs"][0]["tool"]["driver"]["rules"]
        ids = [r["id"] for r in rules]
        assert "SL000" in ids and "DL100" not in ids


class TestOneDisplayPath:
    def test_sl_and_dl_findings_spell_a_file_the_same_way(self, tree):
        findings = lint_paths([tree / "pkg"], deep=True)
        by_rule = {f.rule: f.path for f in findings
                   if f.path.endswith("mod.py")}
        assert by_rule["SL005"] == by_rule["DL102"] == "pkg/mod.py"

    def test_shallow_findings_are_root_relative_too(self, tree):
        assert {f.path for f in lint_paths([tree / "pkg"])} == {
            "pkg/mod.py", "pkg/broken.py"}

    def test_no_contract_root_keeps_the_path_as_given(self, loose):
        assert [f.path for f in lint_paths([loose])] == [str(loose)]

    def test_baseline_written_from_absolute_applies_from_relative(
            self, tree, capsys, monkeypatch):
        baseline = tree / "b.json"
        status, _out, _err = run_lint(
            capsys, "--deep", "--write-baseline", "--baseline", baseline,
            (tree / "pkg").resolve())
        assert status == 0
        paths = {e["path"] for e in
                 json.loads(baseline.read_text())["suppressions"]}
        assert paths == {"pkg/mod.py", "pkg/broken.py"}
        monkeypatch.chdir(tree)
        status, out, err = run_lint(capsys, "--deep", "--strict",
                                    "--baseline", "b.json", "pkg")
        assert (status, err) == (0, ""), out


class TestLooseFiles:
    def test_same_named_files_are_both_linted(self, tmp_path):
        """Two files outside any package share the module name ``x``;
        the per-file rules still see each of them."""
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "x.py").write_text("def f(xs=[]): pass\n")
        found = lint_paths([tmp_path])
        assert [(f.rule, pathlib.Path(f.path).parent.name)
                for f in found] == [("SL005", "a"), ("SL005", "b")]


class TestBaselineWithoutDeep:
    """--baseline, --strict and --write-baseline used to be silently
    ignored unless --deep was given."""

    def test_write_baseline_writes_and_then_suppresses(self, loose, capsys):
        baseline = loose.parent / "b.json"
        status, out, _err = run_lint(capsys, "--write-baseline",
                                     "--baseline", baseline, loose)
        assert status == 0
        assert "wrote 1 suppression(s)" in out
        entries = json.loads(baseline.read_text())["suppressions"]
        assert [e["rule"] for e in entries] == ["SL005"]
        status, out, _err = run_lint(capsys, "--baseline", baseline, loose)
        assert status == 0
        assert "simlint: clean" in out

    def test_strict_fails_on_a_stale_entry(self, loose, capsys):
        baseline = loose.parent / "b.json"
        baseline.write_text(json.dumps({
            "schema": 1,
            "suppressions": [
                {"rule": "SL005", "path": str(loose),
                 "message": "mutable default argument in f() is shared "
                            "across calls; default to None and build "
                            "inside"},
                {"rule": "SL004", "path": "gone.py",
                 "message": "never matches"}]}))
        status, _out, err = run_lint(capsys, "--strict",
                                     "--baseline", baseline, loose)
        assert status == 1
        assert "stale baseline entry SL004 gone.py" in err
        status, _out, err = run_lint(capsys, "--baseline", baseline, loose)
        assert status == 0
        assert "stale baseline entry" in err

    def test_default_baseline_is_found_at_the_contract_root(self, tree,
                                                            capsys):
        status, out, _err = run_lint(capsys, "--write-baseline",
                                     tree / "pkg")
        assert status == 0
        assert os.path.join(str(tree), ".deeplint-baseline.json") in out
        status, out, _err = run_lint(capsys, "--strict", tree / "pkg")
        assert status == 0, out

    def test_write_baseline_without_a_root_needs_a_path(self, loose, capsys):
        status, _out, _err = run_lint(capsys, "--write-baseline", loose)
        assert isinstance(status, str) and "--baseline PATH" in status

    def test_deep_entries_are_neither_stale_nor_dropped(self, tree, capsys):
        baseline = tree / ".deeplint-baseline.json"
        run_lint(capsys, "--deep", "--write-baseline", tree / "pkg")
        deep_entries = json.loads(baseline.read_text())["suppressions"]
        assert "DL102" in {e["rule"] for e in deep_entries}
        # A shallow run cannot see DL findings: their entries are not
        # stale to it, and rewriting the file from it keeps them.
        status, _out, err = run_lint(capsys, "--strict", tree / "pkg")
        assert (status, err) == (0, "")
        run_lint(capsys, "--write-baseline", tree / "pkg")
        assert json.loads(baseline.read_text())["suppressions"] == \
            deep_entries
