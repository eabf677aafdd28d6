"""One linter: a single parse, a single path spelling, a single runner.

What holds only because the per-file (SL) and whole-program (DL) rules
share one engine: each file is parsed once, a file that does not parse
is reported once, and a finding names its file the same way whichever
rule raised it.  The CLI output over the fixture packages is pinned byte for byte.
"""

import ast
import collections
import json
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
        assert len(files) == 11
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

    def test_absolute_and_relative_spellings_agree(self, tree, capsys,
                                                   monkeypatch):
        _status, absolute, _err = run_lint(capsys, "--deep", "--json",
                                           (tree / "pkg").resolve())
        monkeypatch.chdir(tree)
        _status, relative, _err = run_lint(capsys, "--deep", "--json", "pkg")
        assert relative == absolute
        assert {f["path"] for f in json.loads(relative)["findings"]} == {
            "pkg/mod.py", "pkg/broken.py"}


class TestOneSuppression:
    """An inline ``# simlint: disable=CODE`` is the only suppression:
    the baseline file and its flags are gone."""

    @pytest.mark.parametrize("flag", ["--strict", "--write-baseline",
                                      "--baseline=b.json"])
    def test_baseline_flags_are_rejected(self, flag, loose, capsys):
        status, _out, err = run_lint(capsys, flag, loose)
        assert status == 2
        assert "unrecognized arguments" in err


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
