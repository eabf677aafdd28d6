"""Scenario matrices: yamlite, the grid engine, the front door, reports.

Everything runs against ``tmp_path`` caches and the real bundled
library (read-only), so nothing leaks into the durable store.  The
heavyweight contracts pinned here:

* yamlite parses the documented subset and rejects everything else
  with typed, line-numbered errors;
* cell ids are deterministic and invariant under axis declaration
  reordering (the cache-key contract);
* a legacy grid dict and its ``axes_from_grid`` spelling compile to
  identical cells (property-tested) — one engine, two front doors;
* a second run of any scenario is pure cache hits with byte-identical
  report markdown, at any worker count;
* every bundled library scenario's smoke variant actually runs.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments import (
    Axis,
    AxisValue,
    ExperimentSpec,
    ResultCache,
    axes_from_grid,
    expand_axes,
    register,
    unregister,
    value_id,
)
from repro.scenarios import (
    ScenarioConfig,
    YamliteError,
    get_scenario,
    list_scenarios,
    load_matrix,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    yamlite,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


@pytest.fixture
def toy_spec():
    """A registered toy experiment the scenario tests sweep."""
    calls = {"n": 0}

    def producer(ctx):
        calls["n"] += 1
        return [{"x": ctx.params["x"], "mode": ctx.params["mode"],
                 "seed": ctx.seed, "metric": ctx.params["x"] * 10}]

    spec = register(ExperimentSpec(
        name="toy-scn", description="scenario test probe",
        producer=producer, defaults={"x": 1, "mode": "a"},
        axes=axes_from_grid({"x": (1, 2)}), seed=3))
    yield spec, calls
    unregister("toy-scn")


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


class TestYamlite:
    GOLDEN = """\
# header comment
name: demo
description: "a quoted: description"
experiment: toy-scn
replicas: 2
seed: ~
options:
  mem_mib: 128
  ratio: 1.5
  verbose: true
axes:
  - name: steps
    values: [100, 400]
  - name: faults
    values:
      - id: clean
      - id: uce
        plan: uce
"""

    def test_golden_document(self):
        doc = yamlite.loads(self.GOLDEN)
        assert doc["name"] == "demo"
        assert doc["description"] == "a quoted: description"
        assert doc["replicas"] == 2
        assert doc["seed"] is None
        assert doc["options"] == {"mem_mib": 128, "ratio": 1.5,
                                  "verbose": True}
        assert doc["axes"][0] == {"name": "steps", "values": [100, 400]}
        assert doc["axes"][1]["values"][1] == {"id": "uce", "plan": "uce"}

    def test_scalars(self):
        doc = yamlite.loads(
            "a: true\nb: false\nc: null\nd: 7\ne: -2.5\nf: plain\n"
            'g: "qu\\"oted"\n')
        assert doc == {"a": True, "b": False, "c": None, "d": 7,
                       "e": -2.5, "f": "plain", "g": 'qu"oted'}

    @pytest.mark.parametrize("text,match,line", [
        ("a: {x: 1}\n", "flow mappings", 1),
        ("a: &anchor 1\n", "anchors", 1),
        ("a: *alias\n", "aliases", 1),
        ("a: |\n  text\n", "block scalars", 1),
        ("a: 1\na: 2\n", "duplicate key", 2),
        ("a: 1\n\tb: 2\n", "tab", 2),
        ("---\na: 1\n---\n", "document", 1),
        ("a: [1, [2]]\n", "nested", 1),
    ])
    def test_rejections_carry_line_numbers(self, text, match, line):
        with pytest.raises(YamliteError, match=match) as exc:
            yamlite.loads(text)
        assert exc.value.line == line
        assert f"line {line}:" in str(exc.value)

    def test_error_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            yamlite.loads("a: {}\n")


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

    @given(grid=st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
        st.lists(st.one_of(st.integers(-50, 50),
                           st.sampled_from(["a", "b", "c-d"])),
                 min_size=1, max_size=3, unique=True),
        min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_dict_grid_equals_axes_spelling(self, grid):
        """A grid dict through ``axes_from_grid`` and the same axes
        spelled out by hand (declared in reverse) compile to identical
        cells — ids, coords, overrides."""
        defaults = {key: values[0] for key, values in grid.items()}
        by_dict = ExperimentSpec(
            name="prop-grid", description="d", producer=lambda ctx: [],
            defaults=defaults, axes=axes_from_grid(grid))
        by_hand = ExperimentSpec(
            name="prop-grid", description="d", producer=lambda ctx: [],
            defaults=defaults,
            axes=tuple(Axis(key, tuple(AxisValue(value_id(v), {key: v})
                                       for v in grid[key]))
                       for key in sorted(grid, reverse=True)))
        assert [(c.id, c.coords, c.overrides)
                for c in by_dict.grid_cells()] == \
               [(c.id, c.coords, c.overrides)
                for c in by_hand.grid_cells()]

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
        bad = tmp_path / "bad.yml"
        bad.write_text("a: {x: 1}\n")
        with pytest.raises(ConfigurationError, match="bad.yml.*line 1"):
            load_matrix(str(bad))

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
        """A sweep cell and the scenario cell resolving to the same
        config are one cache entry — the one-engine contract."""
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
        matrix = tmp_path / "user.yml"
        matrix.write_text(
            "name: user-demo\n"
            "description: user matrix file\n"
            "experiment: workload-steady\n"
            "prefix: u\n"
            "axes:\n"
            "  - name: steps\n"
            "    values: [40]\n")
        out = self._run(["scenario", "run", "--matrix", str(matrix),
                         "--workers", "1", "--json"], tmp_path, capsys).out
        cells = json.loads(out)
        assert [c["cell"] for c in cells] == ["u-40"]

    def test_experiment_sweep_takes_no_matrix(self, tmp_path, capsys):
        """The PR 10 compatibility bridge is gone: a matrix file is a
        ``scenario run --matrix`` (the test above), and ``experiment
        sweep`` requires a spec name."""
        from repro.cli import build_parser

        for argv, complaint in (
                (["experiment", "sweep", "workload-steady",
                  "--matrix", "user.yml"], "unrecognized arguments"),
                (["experiment", "sweep"], "arguments are required: NAME")):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2
            assert complaint in capsys.readouterr().err

    def test_name_and_matrix_are_exclusive(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["scenario", "run", "fragmentation-aging",
                  "--matrix", "x.yml"])
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
