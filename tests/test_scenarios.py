"""Scenario matrices: the loader, the grid engine, the front door, reports.

Everything runs against ``tmp_path`` caches and the real bundled
library (read-only), so nothing leaks into the durable store.  The
heavyweight contracts pinned here:

* matrix files are strict JSON: every way one fails to read is a
  ``ConfigurationError`` naming the file, and the bundled library
  compiles to the cell ids and snapshots pinned below;
* cell ids are deterministic and invariant under axis declaration
  reordering (the cache-key contract);
* a second run of any scenario is pure cache hits with byte-identical
  report markdown, at any worker count;
* every bundled library scenario's smoke variant actually runs.
"""

import hashlib
import json
import os
import re

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    Axis,
    AxisValue,
    ExperimentSpec,
    ResultCache,
    canonical_json,
    expand_axes,
    value_id,
)
from repro.scenarios import (
    ScenarioConfig,
    get_scenario,
    library_dir,
    list_scenarios,
    load_matrix,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


@pytest.fixture
def toy_spec(toy_register):
    """A registered toy experiment the scenario tests sweep."""
    calls = {"n": 0}

    def producer(ctx):
        calls["n"] += 1
        return [{"x": ctx.params["x"], "mode": ctx.params["mode"],
                 "seed": ctx.seed, "metric": ctx.params["x"] * 10}]

    spec = toy_register(ExperimentSpec(
        name="toy-scn", description="scenario test probe",
        producer=producer, defaults={"x": 1, "mode": "a"}, seed=3))
    return spec, calls


#: A user-supplied matrix file, as ``--matrix`` reads it.
MATRIX_JSON = """\
{
  "name": "user-demo",
  "description": "user matrix file",
  "why": ["user matrix"],
  "experiment": "workload-steady",
  "prefix": "u", "options": {"mem_mib": 64},
  "axes": [{"name": "steps", "values": [40]}]
}
"""


def toy_scenario(**over):
    doc = {
        "name": "toy-matrix",
        "description": "two axes over the toy spec",
        "experiment": "toy-scn",
        "prefix": "t",
        "axes": [
            {"name": "x", "values": [1, 2]},
            {"name": "mode", "values": [
                {"id": "a", "value": "a"}, {"id": "b", "value": "b"}]},
        ],
        "smoke": {"axes": [{"name": "x", "values": [1]},
                           {"name": "mode",
                            "values": [{"id": "a", "value": "a"}]}]},
    }
    doc.update(over)
    return scenario_from_dict(doc)


class TestGridEngine:
    def test_cell_ids_stable_under_axis_reordering(self):
        fwd = [{"name": "x", "values": [1, 2]},
               {"name": "mode", "values": [
                   {"id": "a", "value": "a"}, {"id": "b", "value": "b"}]}]
        rev = list(reversed(fwd))
        ids = lambda axes: [c.id for c in toy_scenario(axes=axes)
                            .matrix().cells()]
        assert ids(fwd) == ids(rev) == ["t-a-1", "t-a-2", "t-b-1", "t-b-2"]

    def test_value_ids_distinct_and_deterministic(self):
        assert value_id(1) == "1"
        assert value_id(-4) == "neg4"
        assert value_id(1.5) == "1.5"
        assert value_id("cache-b") == "cache-b"
        assert value_id(True) != value_id(1)
        assert value_id(None) == "null"

    def test_replicas_suffix_only_when_replicated(self):
        one = expand_axes((Axis("x", (AxisValue("1", {"x": 1}),)),))
        two = expand_axes((Axis("x", (AxisValue("1", {"x": 1}),)),),
                          replicas=2)
        assert [c.id for c in one] == ["1"]
        assert [c.id for c in two] == ["1-r0", "1-r1"]
        assert [c.replica for c in two] == [0, 1]

    def test_plan_axis_limits(self):
        axes = [
            {"name": "f1", "values": [{"id": "u", "plan": "uce"},
                                      {"id": "c"}]},
            {"name": "f2", "values": [{"id": "u2", "plan": "uce"},
                                      {"id": "c2"}]},
        ]
        smoke = {"axes": [{"name": "f1", "values": [{"id": "c"}]}]}
        with pytest.raises(ConfigurationError, match="plan"):
            toy_scenario(axes=axes, smoke=smoke).matrix().cells()

    def test_unknown_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="crash-only"):
            toy_scenario(plan="no-such-plan")


class TestLoader:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario key"):
            scenario_from_dict({"name": "x", "description": "d",
                                "experiment": "toy-scn", "bogus": 1})

    def test_axis_value_needs_id_or_value(self):
        with pytest.raises(ConfigurationError, match="id.*value|value.*id"):
            toy_scenario(axes=[{"name": "f",
                                "values": [{"plan": "uce"}]}])

    def test_load_matrix_wraps_parse_errors_with_path(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": {"x": 1,}}\n')
        with pytest.raises(
                ConfigurationError,
                match=r"bad\.json: .*line 1 column 15.*matrices are JSON"):
            load_matrix(str(bad))

    @pytest.mark.parametrize("body,match", [
        ('{"name": "x", "name": "y"}', "duplicate key 'name'"),
        (MATRIX_JSON.replace('"mem_mib": 64', '"mem_mib": 64, "mem_mib": 32'),
         "duplicate key 'mem_mib'"),
        (MATRIX_JSON.replace("64", "NaN"), "non-finite number NaN"),
        (MATRIX_JSON.replace("64", "-Infinity"), "non-finite number"),
        (MATRIX_JSON.replace("[40]", "[40,]"), "line 7 column 44"),
        ("[" + MATRIX_JSON + "]", "must be a mapping, got list"),
        (MATRIX_JSON.replace('["user matrix"]', "3"),
         "'why' must be a list of strings, got 3"),
        (MATRIX_JSON.replace('["user matrix"]', '["ok", 3]'),
         "'why' must be a list of strings"),
    ], ids=["duplicate-key", "nested-duplicate-key", "nan", "infinity",
            "trailing-comma", "top-level-list", "why-scalar",
            "why-mixed-list"])
    def test_load_matrix_rejects(self, tmp_path, body, match):
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        with pytest.raises(ConfigurationError, match=match) as exc:
            load_matrix(str(bad))
        assert str(exc.value).startswith(f"{bad}: ")

    def test_why_reaches_no_output(self, tmp_path):
        path = tmp_path / "user.json"
        path.write_text(MATRIX_JSON)
        with_why = load_matrix(str(path))
        path.write_text(MATRIX_JSON.replace('"why": ["user matrix"],', ""))
        assert load_matrix(str(path)) == with_why

    def test_get_scenario_unknown_lists_known(self):
        with pytest.raises(ConfigurationError, match="fragmentation-aging"):
            get_scenario("no-such-scenario")

    def test_library_names_match_stems(self):
        scenarios = list_scenarios()
        assert len(scenarios) >= 10
        for scenario in scenarios:
            assert scenario.smoke is not None, scenario.name
            # every scenario (full and smoke) compiles against the
            # real experiment registry
            scenario.matrix().compile()
            scenario.matrix(smoke=True).compile()


#: (scenario, smoke) -> (sha256[:16] of the canonical-JSON
#: ``matrix.snapshot()``, the compiled cell ids).  Generated once from
#: the last commit whose library was YAML: the JSON files must compile
#: to exactly what those compiled to.
LIBRARY = {
    ("cache-churn", False): (
        "875051ee0c8dc1d6",
        "cc-linux-cache-a cc-linux-cache-b cc-contiguitas-cache-a "
        "cc-contiguitas-cache-b"),
    ("cache-churn", True): (
        "1d665475b09559db",
        "cc-linux-cache-b cc-contiguitas-cache-b"),
    ("crash-restart-soak", False): (
        "00cdbaa4bd121c88",
        "cr-r0 cr-r1"),
    ("crash-restart-soak", True): (
        "6e651ae07c1e21e8",
        "cr-r0 cr-r1"),
    ("diurnal-burst", False): (
        "c3393f3590c9201d",
        "db-nc-1000 db-nc-2000 db-none-1000 db-none-2000"),
    ("diurnal-burst", True): (
        "59cae74b10714f64",
        "db-nc-1000 db-none-1000"),
    ("flaky-migrate-soak", False): (
        "dcd37781ca57d3f0",
        "fm-6 fm-12"),
    ("flaky-migrate-soak", True): (
        "2097d15aa74a7220",
        "fm-2"),
    ("fragmentation-aging", False): (
        "47cc6fc77e75e5aa",
        "fa-cache-b-100 fa-cache-b-400 fa-cache-b-800 fa-web-100 "
        "fa-web-400 fa-web-800"),
    ("fragmentation-aging", True): (
        "005e52f3d922121e",
        "fa-cache-b-20"),
    ("hotplug-churn", False): (
        "b48f917604c3b914",
        "hc-6 hc-12"),
    ("hotplug-churn", True): (
        "954dd1ff4d73aa51",
        "hc-2"),
    ("hugepage-thrash", False): (
        "01e0d75d32759c5b",
        "ht-linux-web ht-linux-cache-b ht-contiguitas-web "
        "ht-contiguitas-cache-b"),
    ("hugepage-thrash", True): (
        "cea8d4a232093603",
        "ht-linux-web ht-contiguitas-web"),
    ("oom-storm", False): (
        "a8baf494afdcf249",
        "os-128 os-256"),
    ("oom-storm", True): (
        "bf7fac2ebae892fd",
        "os-64"),
    ("region-resize-storm", False): (
        "64503eeca473cb8b",
        "rr-64 rr-128 rr-256"),
    ("region-resize-storm", True): (
        "492bfaad3d2423f0",
        "rr-64"),
    ("steady-web", False): (
        "2533dfa355e59c03",
        "sw-nc-1000 sw-nc-2000 sw-c-1000 sw-c-2000 sw-none-1000 "
        "sw-none-2000"),
    ("steady-web", True): (
        "97a8259ebff03d1b",
        "sw-nc-1000 sw-none-1000"),
    ("uce-degrade", False): (
        "e67c63003fb950d2",
        "ud-clean ud-uce"),
    ("uce-degrade", True): (
        "2f567ff2f5da29e0",
        "ud-clean ud-uce"),
}


def snapshot_digest(matrix):
    text = canonical_json(matrix.snapshot())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestLibraryIsData:
    def test_files_are_exactly_the_pinned_scenarios(self):
        stems = sorted({name for name, _ in LIBRARY})
        assert sorted(os.listdir(library_dir())) == [
            f"{stem}.json" for stem in stems]
        assert [s.name for s in list_scenarios()] == stems

    @pytest.mark.parametrize("name", sorted({n for n, _ in LIBRARY}))
    def test_file_shape(self, name):
        with open(os.path.join(library_dir(), f"{name}.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["name"] == name
        assert doc["why"] and all(
            isinstance(line, str) and line for line in doc["why"])
        assert isinstance(doc["smoke"], dict)

    @pytest.mark.parametrize("name,smoke", sorted(LIBRARY))
    def test_compiles_to_the_pinned_matrix(self, name, smoke):
        digest, cells = LIBRARY[name, smoke]
        matrix = get_scenario(name).matrix(smoke=smoke)
        assert [c.id for c in matrix.compile()] == cells.split()
        assert snapshot_digest(matrix) == digest, matrix.snapshot()


class TestFrontDoorRuns:
    def test_second_run_is_all_cache_hits(self, cache, toy_spec):
        _, calls = toy_spec
        cfg = ScenarioConfig(scenario=toy_scenario(), workers=1)
        first = run_scenario(cfg, cache=cache)
        assert calls["n"] == 4
        assert first.n_cached == 0
        second = run_scenario(cfg, cache=cache)
        assert calls["n"] == 4  # nothing recomputed
        assert second.n_cached == 4
        counters = second.manifest["counters"]
        assert counters.get("experiment.cache_miss", 0) == 0
        assert counters["scenario.cells_cached"] == 4
        assert [r.rows for r in first.results] == \
               [r.rows for r in second.results]

    def test_report_byte_identical_fresh_vs_cached(self, cache, toy_spec):
        cfg = ScenarioConfig(scenario=toy_scenario(), workers=1)
        first = run_scenario(cfg, cache=cache)
        second = run_scenario(cfg, cache=cache)
        loaded = load_scenario(cfg, cache=cache)
        assert first.report() == second.report() == loaded.report()
        assert first.report_html() == second.report_html()

    def test_report_byte_identical_across_worker_counts(self, tmp_path):
        md = {}
        for workers in (1, 4):
            cache = ResultCache(str(tmp_path / f"w{workers}"))
            result = run_scenario(
                ScenarioConfig(scenario="fragmentation-aging", smoke=True,
                               workers=workers), cache=cache)
            md[workers] = result.report()
        assert md[1] == md[4]

    def test_select_filters_compose_with_cache(self, cache, toy_spec):
        _, calls = toy_spec
        full = ScenarioConfig(scenario=toy_scenario(), workers=1)
        run_scenario(full, cache=cache)
        pinned = run_scenario(
            ScenarioConfig(scenario=toy_scenario(), workers=1,
                           select={"mode": "b"}), cache=cache)
        assert [c.id for c in pinned.cells] == ["t-b-1", "t-b-2"]
        assert pinned.n_cached == 2  # the full run already paid for them
        assert calls["n"] == 4

    def test_cell_filter_and_errors(self, cache, toy_spec):
        picked = run_scenario(
            ScenarioConfig(scenario=toy_scenario(), workers=1,
                           cells=("t-a-2",)), cache=cache)
        assert [c.id for c in picked.cells] == ["t-a-2"]
        with pytest.raises(ConfigurationError, match="t-a-9"):
            run_scenario(ScenarioConfig(scenario=toy_scenario(),
                                        cells=("t-a-9",)), cache=cache)
        with pytest.raises(ConfigurationError, match="no axis"):
            run_scenario(ScenarioConfig(scenario=toy_scenario(),
                                        select={"bogus": "1"}), cache=cache)

    def test_smoke_replaces_axes(self, cache, toy_spec):
        result = run_scenario(
            ScenarioConfig(scenario=toy_scenario(), smoke=True, workers=1),
            cache=cache)
        assert [c.id for c in result.cells] == ["t-a-1"]

    def test_load_scenario_names_missing_cells(self, cache, toy_spec):
        with pytest.raises(ConfigurationError, match="t-a-1"):
            load_scenario(ScenarioConfig(scenario=toy_scenario()),
                          cache=cache)

    def test_scenario_cells_share_sweep_cache(self, cache, toy_spec):
        """An ``experiment run`` cell and the scenario cell resolving to
        the same config are one cache entry — the one-engine contract."""
        from repro.experiments import run_experiment

        _, calls = toy_spec
        scenario = toy_scenario(
            axes=[{"name": "x", "values": [1]},
                  {"name": "mode", "values": [{"id": "a", "value": "a"}]}])
        run_experiment("toy-scn", overrides={"x": 1, "mode": "a"},
                       seed=3, cache=cache)
        assert calls["n"] == 1
        result = run_scenario(ScenarioConfig(scenario=scenario, workers=1),
                              cache=cache)
        assert calls["n"] == 1
        assert result.n_cached == 1

    def test_replica_seeds_offset(self, cache, toy_spec):
        scenario = toy_scenario(
            replicas=2,
            axes=[{"name": "x", "values": [1]},
                  {"name": "mode", "values": [{"id": "a", "value": "a"}]}])
        result = run_scenario(ScenarioConfig(scenario=scenario, workers=1),
                              cache=cache)
        assert [c.id for c in result.cells] == ["t-a-1-r0", "t-a-1-r1"]
        assert [r.rows[0]["seed"] for r in result.results] == [3, 4]


@pytest.mark.parametrize("name", [s.name for s in list_scenarios()])
def test_library_smoke_end_to_end(name, tmp_path):
    """Every bundled scenario's smoke variant runs, caches, reports."""
    cache = ResultCache(str(tmp_path / "cache"))
    cfg = ScenarioConfig(scenario=name, smoke=True, workers=1)
    first = run_scenario(cfg, cache=cache)
    assert first.results and all(r.rows for r in first.results)
    second = run_scenario(cfg, cache=cache)
    assert second.n_cached == len(second.cells)
    assert first.report() == second.report()
    assert "<table>" in second.report_html()


class TestReport:
    """``report.py`` builds one document of sections; markdown and HTML
    only dress it."""

    @pytest.mark.parametrize("name", ["hugepage-thrash",
                                      "crash-restart-soak"])
    def test_bytes_match_the_pre_refactor_golden(self, name, cache):
        """The fixture holds what the two independent renderers printed
        at the commit before they became emitters over one document
        (two axes; replicas under a fault plan)."""
        path = os.path.join(os.path.dirname(__file__), "fixtures",
                            "scenario_report_golden.json")
        with open(path) as fh:
            golden = json.load(fh)["scenarios"][name]
        result = run_scenario(
            ScenarioConfig(scenario=name, smoke=True, workers=1),
            cache=cache)
        for fmt, text in (("markdown", result.report()),
                          ("html", result.report_html())):
            assert hashlib.sha256(text.encode()).hexdigest() == \
                golden[fmt], fmt

    def test_both_emitters_carry_the_same_sections_and_cells(
            self, cache, toy_spec):
        from html import unescape

        result = run_scenario(
            ScenarioConfig(scenario=toy_scenario(), workers=1), cache=cache)

        def from_markdown(text):
            sections = []
            for block in text.split("\n## ")[1:]:
                heading, _, body = block.partition("\n")
                sections.append((heading.replace("`", ""), [
                    [c.strip("`") for c in line[2:-2].split(" | ")]
                    for line in body.splitlines()
                    if line.startswith("| ")
                    and not line.startswith("| ---")]))
            return sections

        def from_html(text):
            untag = lambda t: unescape(re.sub(r"<[^>]+>", "", t))
            sections = []
            for block in text.split("<h2>")[1:]:
                heading, _, body = block.partition("</h2>")
                sections.append((untag(heading), [
                    [untag(c) for c in re.findall(
                        r"<t[hd]>(.*?)</t[hd]>", row, re.S)]
                    for row in body.split("<tr>")[1:]]))
            return sections

        sections = from_markdown(result.report())
        assert sections == from_html(result.report_html())
        assert [heading for heading, _ in sections] == [
            "Cell grid", "Delta vs baseline t-a-1",
            "Marginals by mode", "Marginals by x"]
        grid = dict(sections)["Cell grid"]
        assert grid[0][0] == "cell" and "metric" in grid[0]
        assert [row[0] for row in grid[1:]] == [
            c.id for c in result.cells]


class TestCli:
    def _run(self, argv, tmp_path, capsys):
        from repro.cli import main

        main(argv + ["--cache-dir", str(tmp_path / "cli-cache")])
        return capsys.readouterr()

    def test_list(self, capsys):
        from repro.cli import main

        main(["scenario", "list"])
        out = capsys.readouterr().out
        assert "fragmentation-aging" in out
        main(["scenario", "list", "--json"])
        entries = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in entries} >= {"fragmentation-aging",
                                                "uce-degrade"}

    def test_show_compiles_cells(self, capsys):
        from repro.cli import main

        main(["scenario", "show", "uce-degrade", "--smoke"])
        out = capsys.readouterr().out
        assert "ud-clean" in out and "ud-uce" in out
        main(["scenario", "show", "uce-degrade", "--smoke", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in doc["cells"]] == ["ud-clean", "ud-uce"]

    def test_run_then_report_stdout_byte_identical(self, tmp_path, capsys):
        argv = ["scenario", "run", "fragmentation-aging", "--smoke",
                "--workers", "1"]
        first = self._run(argv, tmp_path, capsys)
        again = self._run(argv, tmp_path, capsys)
        assert first.out == again.out
        assert "cached" in again.err
        report = self._run(["scenario", "report", "fragmentation-aging",
                            "--smoke"], tmp_path, capsys)
        assert report.out == first.out

    def test_run_html_artifact(self, tmp_path, capsys):
        html = tmp_path / "grid.html"
        self._run(["scenario", "run", "fragmentation-aging", "--smoke",
                   "--workers", "1", "--html", str(html)], tmp_path, capsys)
        assert "<table>" in html.read_text()

    def test_run_matrix_file(self, tmp_path, capsys):
        matrix = tmp_path / "user.json"
        matrix.write_text(MATRIX_JSON)
        out = self._run(["scenario", "run", "--matrix", str(matrix),
                         "--workers", "1", "--json"], tmp_path, capsys).out
        cells = json.loads(out)
        assert [c["cell"] for c in cells] == ["u-40"]

    @pytest.mark.parametrize("content,complaint", [
        (None, "No such file or directory"),
        (..., "Is a directory"),
        (b"\xff\xfe{}", "can't decode byte 0xff.*matrices are JSON"),
        (b"name: last-week\nexperiment: workload-steady\n",
         "line 1 column 1.*matrices are JSON.*docs/API.md"),
        (MATRIX_JSON.replace("64", "Infinity").encode(),
         "non-finite number Infinity"),
    ], ids=["missing", "directory", "not-utf8", "yaml", "non-finite"])
    def test_unreadable_matrix_is_one_line_not_a_traceback(
            self, tmp_path, content, complaint):
        from repro.cli import main

        path = tmp_path / "user.json"
        if content is ...:
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "show", "--matrix", str(path)])
        message = exit_info.value.code
        assert message.startswith(f"repro: {path}: ")
        assert re.search(complaint, message) and "\n" not in message

    def test_experiment_sweep_is_an_invalid_choice(self, capsys):
        """A grid is a matrix file, run by ``scenario run --matrix`` (the
        test above): ``experiment sweep`` is gone (docs/API.md, "Removed
        surface")."""
        from repro.cli import build_parser

        for argv in (["experiment", "sweep", "workload-steady"],
                     ["experiment", "sweep"]):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2
            assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_name_and_matrix_are_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["scenario", "run", "fragmentation-aging",
                  "--matrix", "x.json"])
        with pytest.raises(SystemExit):
            main(["scenario", "run"])


class TestScenarioModel:
    def test_frozen(self):
        scenario = toy_scenario()
        with pytest.raises(Exception):
            scenario.name = "other"

    def test_smoke_axis_must_name_a_scenario_axis(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            toy_scenario(smoke={"axes": [{"name": "bogus",
                                          "values": [1]}]})

    def test_eager_validation_catches_bad_matrix(self):
        with pytest.raises(ConfigurationError, match="kebab"):
            toy_scenario(name="Bad_Name")

    def test_snapshot_is_json_stable(self):
        snap = toy_scenario().matrix().snapshot()
        assert json.dumps(snap)  # serialisable
        assert snap == toy_scenario().matrix().snapshot()
