"""Experiment orchestration: specs, content-addressed cache, sweeps
(a grid is a matrix file, run by ``repro scenario run --matrix``).

Every test uses a ``tmp_path`` cache root and registers throwaway specs
(popped from the registry by the ``toy_register`` fixture), so nothing
leaks into the durable ``benchmarks/results/cache`` store or the
built-in registry.
"""

import json
import math
import os
import pathlib
import re

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    CACHE_ENV,
    Band,
    ExperimentSpec,
    Ordered,
    ResultCache,
    all_specs,
    canonical_json,
    default_cache_dir,
    get_spec,
    load_cached,
    register,
    result_key,
    run_experiment,
    verify_claims,
)
from repro.experiments.spec import Table
from repro.faults import FaultPlan, FaultSpec

from conftest import cached_keys


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


@pytest.fixture
def counting_spec(toy_register):
    """A registered toy spec whose producer counts its invocations."""
    calls = {"n": 0}

    def producer(ctx):
        calls["n"] += 1
        return [{"x": ctx.params["x"], "seed": ctx.seed,
                 "call": calls["n"]}]

    spec = toy_register(ExperimentSpec(
        name="toy-count", description="test", producer=producer,
        defaults={"x": 1, "y": "a"}, seed=5))
    return spec, calls


class TestSpecRegistry:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="kebab-case"):
            ExperimentSpec(name="Bad_Name", description="d",
                           producer=lambda ctx: [])
        with pytest.raises(ConfigurationError, match="JSON scalar"):
            ExperimentSpec(name="x", description="d",
                           producer=lambda ctx: [],
                           defaults={"k": [1, 2]})
        with pytest.raises(ConfigurationError, match="version"):
            ExperimentSpec(name="x", description="d",
                           producer=lambda ctx: [], version=0)
        for description in ("", None):
            with pytest.raises(ConfigurationError, match="description"):
                ExperimentSpec(name="x", description=description,
                               producer=lambda ctx: [])

    def test_duplicate_registration_rejected(self, counting_spec):
        spec, _ = counting_spec
        with pytest.raises(ConfigurationError, match="already registered"):
            register(spec)
        register(spec, replace=True)  # explicit override is fine

    def test_unknown_spec_lists_registered(self):
        with pytest.raises(ConfigurationError, match="fleet-survey"):
            get_spec("no-such-experiment")

    def test_resolve_rejects_unknown_keys(self, counting_spec):
        spec, _ = counting_spec
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            spec.resolve({"z": 1})

    TYPED = {"steps": 10, "rate": 1.5, "label": "x", "flag": False,
             "limit": None}

    def _typed_spec(self):
        return ExperimentSpec(name="typed", description="d",
                              producer=lambda ctx: [], defaults=self.TYPED)

    @pytest.mark.parametrize("key,value,expected,given", [
        ("steps", "abc", "integer", "string"),
        ("steps", 2.5, "integer", "float"),
        ("steps", 2.0, "integer", "float"),
        ("steps", True, "integer", "boolean"),
        ("steps", None, "integer", "null"),
        ("rate", "fast", "float", "string"),
        ("rate", False, "float", "boolean"),
        ("label", 3, "string", "integer"),
        ("flag", 1, "boolean", "integer"),
        ("flag", "true", "boolean", "string"),
    ])
    def test_resolve_rejects_another_json_type(self, key, value, expected,
                                               given):
        with pytest.raises(ConfigurationError) as info:
            self._typed_spec().resolve({key: value})
        message = str(info.value)
        assert repr(key) in message
        assert f"expects {expected}, got {given} {value!r}" in message

    def test_resolve_accepts_matching_types_uncoerced(self):
        given = {"steps": 20, "rate": 3, "label": "y", "flag": True,
                 "limit": "any"}
        config = self._typed_spec().resolve(given)
        assert config == given
        # The integer given for the float default stays an integer, so
        # its cache key is the one it had before types were checked.
        assert type(config["rate"]) is int
        assert canonical_json(config) != canonical_json(
            {**given, "rate": 3.0})
        for limit in (7, 0.5, False, None):
            assert self._typed_spec().resolve(
                {"limit": limit})["limit"] is limit

    def test_builtins_registered(self):
        names = [s.name for s in all_specs()]
        for expected in ("fleet-survey", "fig04-contiguity-cdf",
                         "fig06-sources"):
            assert expected in names


#: Every built-in spec, in ``all_specs()`` order.
BUILTIN_SPECS = (
    "ablation-autotune", "ablation-designs", "ablation-pcp",
    "ablation-placement", "alg1-resizing", "fig02-hwgen",
    "fig03-walk-cycles", "fig04-contiguity-cdf", "fig05-unmovable-cdf",
    "fig06-sources", "fig10-endtoend", "fig11-unmovable", "fig12-potential",
    "fig13-unavailable", "fleet-survey", "s24-uptime-corr",
    "s52-internal-frag", "s53-hwcost", "s53-interference", "steady-profile",
    "tail-latency-interference", "workload-steady")


class TestSpecFamilies:
    """The built-in specs live in five family modules, each imported the
    first time one of its names is asked for (``spec.FAMILIES``)."""

    def test_each_family_registers_exactly_its_row(self):
        from conftest import fresh_python

        done = fresh_python(
            "import json\n"
            "from importlib import import_module\n"
            "from repro.experiments import spec\n"
            "added = {}\n"
            "for module in spec.FAMILIES:\n"
            "    before = list(spec._REGISTRY)\n"
            "    import_module(module)\n"
            "    added[module] = [n for n in spec._REGISTRY\n"
            "                     if n not in before]\n"
            "print(json.dumps(added))\n")
        assert done.returncode == 0, done.stderr
        from repro.experiments.spec import FAMILIES

        assert json.loads(done.stdout) == {
            module: list(names) for module, names in FAMILIES.items()}
        names = [name for row in FAMILIES.values() for name in row]
        assert len(names) == len(set(names))

    def test_all_specs_is_every_family_in_name_order(self):
        from conftest import fresh_python

        done = fresh_python(
            "from repro.experiments import all_specs\n"
            "print(' '.join(s.name for s in all_specs()))\n")
        assert done.returncode == 0, done.stderr
        assert tuple(done.stdout.split()) == BUILTIN_SPECS

    def test_unknown_name_lists_every_builtin(self):
        """Asked before any family has loaded, the error still names all
        22 built-ins."""
        from conftest import fresh_python

        done = fresh_python(
            "from repro.errors import ConfigurationError\n"
            "from repro.experiments import get_spec\n"
            "try:\n"
            "    get_spec('no-such-spec')\n"
            "except ConfigurationError as exc:\n"
            "    print(exc)\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == (
            "unknown experiment 'no-such-spec'; registered: "
            + ", ".join(BUILTIN_SPECS))

    def test_builtin_name_is_taken_before_its_family_loads(self):
        from conftest import fresh_python

        done = fresh_python(
            "from repro.errors import ConfigurationError\n"
            "from repro.experiments import ExperimentSpec, register\n"
            "try:\n"
            "    register(ExperimentSpec(name='fig02-hwgen', "
            "description='x', producer=list))\n"
            "except ConfigurationError as exc:\n"
            "    print(exc)\n")
        assert done.returncode == 0, done.stderr
        assert "already registered" in done.stdout


class TestResultKey:
    def test_stable_and_order_independent(self):
        a = result_key("s", 1, {"a": 1, "b": 2}, 7)
        b = result_key("s", 1, {"b": 2, "a": 1}, 7)
        assert a == b
        assert len(a) == 64

    def test_every_component_changes_key(self):
        base = result_key("s", 1, {"a": 1}, 7)
        assert result_key("t", 1, {"a": 1}, 7) != base
        assert result_key("s", 2, {"a": 1}, 7) != base
        assert result_key("s", 1, {"a": 2}, 7) != base
        assert result_key("s", 1, {"a": 1}, 8) != base
        plan = FaultPlan("p", (FaultSpec("mm.memory.uce", rate=0.5),))
        assert result_key("s", 1, {"a": 1}, 7, plan.snapshot()) != base

    def test_canonical_json_rejects_unserialisable(self):
        with pytest.raises(ConfigurationError, match="serialisable"):
            canonical_json({"f": object()})

    def test_cache_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "alt"))
        assert default_cache_dir() == str(tmp_path / "alt")


class TestRunExperiment:
    def test_miss_then_hit(self, cache, counting_spec):
        _, calls = counting_spec
        r1 = run_experiment("toy-count", cache=cache)
        r2 = run_experiment("toy-count", cache=cache)
        assert (r1.cached, r2.cached) == (False, True)
        assert calls["n"] == 1
        assert r1.rows == r2.rows
        assert r1.key == r2.key

    def test_rows_byte_identical_fresh_vs_cached(self, cache,
                                                 counting_spec):
        r1 = run_experiment("toy-count", cache=cache)
        r2 = run_experiment("toy-count", cache=cache)
        assert canonical_json(r1.rows) == canonical_json(r2.rows)
        assert r1.report() == r2.report()

    def test_counters_in_manifest(self, cache, counting_spec):
        r1 = run_experiment("toy-count", cache=cache)
        assert r1.manifest["counters"]["experiment.cache_miss"] == 1
        r2 = run_experiment("toy-count", cache=cache)
        assert r2.manifest["counters"]["experiment.cache_hit"] == 1
        assert "experiment.cache_miss" not in r2.manifest["counters"]

    def test_seed_and_config_address_separately(self, cache,
                                                counting_spec):
        _, calls = counting_spec
        run_experiment("toy-count", cache=cache)
        run_experiment("toy-count", seed=6, cache=cache)
        run_experiment("toy-count", overrides={"x": 9}, cache=cache)
        assert calls["n"] == 3

    def test_plan_changes_address(self, cache, counting_spec):
        _, calls = counting_spec
        plan = FaultPlan("p", (FaultSpec("mm.memory.uce", rate=0.1),))
        run_experiment("toy-count", cache=cache)
        run_experiment("toy-count", plan=plan, cache=cache)
        assert calls["n"] == 2

    def test_force_recomputes(self, cache, counting_spec):
        _, calls = counting_spec
        run_experiment("toy-count", cache=cache)
        r = run_experiment("toy-count", cache=cache, force=True)
        assert calls["n"] == 2
        assert not r.cached

    def test_producer_must_return_list(self, cache, toy_register):
        toy_register(ExperimentSpec(name="toy-bad", description="d",
                                    producer=lambda ctx: {"not": "a list"}))
        with pytest.raises(ConfigurationError, match="list"):
            run_experiment("toy-bad", cache=cache)

    def test_manifest_written_to_path(self, cache, counting_spec,
                                      tmp_path):
        from repro.telemetry import write_manifest

        path = tmp_path / "run.json"
        write_manifest(path, run_experiment("toy-count", cache=cache).manifest)
        manifest = json.loads(path.read_text())
        assert manifest["kind"] == "experiment"
        assert manifest["config"]["experiment"] == "toy-count"

    def test_load_cached(self, cache, counting_spec):
        assert load_cached("toy-count", cache=cache) is None
        run_experiment("toy-count", cache=cache)
        found = load_cached("toy-count", cache=cache)
        assert found is not None and found.cached

    def test_corrupt_entry_is_a_miss(self, cache, counting_spec):
        _, calls = counting_spec
        r = run_experiment("toy-count", cache=cache)
        path = cache.path_for(r.key)
        with open(path, "w") as fh:
            fh.write("{truncated")
        run_experiment("toy-count", cache=cache)
        assert calls["n"] == 2


    @pytest.mark.parametrize("entry", ["matrix", "scenario-config",
                                       "run-experiment"])
    def test_a_boolean_seed_is_refused_by_value(self, entry, cache,
                                                tmp_path):
        """``True`` is an ``int`` to Python: it used to run as seed 1,
        and ``run_experiment`` cached it under a key of its own."""
        from repro.scenarios import ScenarioConfig, load_matrix

        with pytest.raises(ConfigurationError,
                           match="seed must be an integer, got True"):
            if entry == "matrix":
                path = tmp_path / "m.json"
                path.write_text(json.dumps({
                    "name": "bool-seed", "description": "d",
                    "experiment": "fig02-hwgen", "seed": True}))
                load_matrix(str(path))
            elif entry == "scenario-config":
                ScenarioConfig(scenario="steady-web", seed=True)
            else:
                run_experiment("fig02-hwgen", seed=True, cache=cache)
        assert cached_keys(cache) == []


class TestNestedFetch:
    def test_figures_share_one_dependency_run(self, cache, toy_register):
        calls = {"dep": 0}

        def dep_producer(ctx):
            calls["dep"] += 1
            return [{"v": ctx.params["n"] * 10}]

        def fig_producer(ctx):
            rows = ctx.fetch("toy-dep", overrides={"n": ctx.params["n"]})
            return [{"derived": rows[0]["v"] + 1}]

        toy_register(ExperimentSpec(name="toy-dep", description="d",
                                    producer=dep_producer,
                                    defaults={"n": 2}))
        for name in ("toy-fig-a", "toy-fig-b"):
            toy_register(ExperimentSpec(name=name, description="d",
                                        producer=fig_producer,
                                        defaults={"n": 2}))
        a = run_experiment("toy-fig-a", cache=cache)
        b = run_experiment("toy-fig-b", cache=cache)
        assert calls["dep"] == 1  # second figure hit the cached dep
        assert a.rows == b.rows == [{"derived": 21}]
        counters = b.manifest["counters"]
        assert counters["experiment.cache_hit"] == 1


class TestSweep:
    """A spec's grid is a matrix file, run by ``repro scenario run
    --matrix``: there is no second grid runner, so a sweep is
    resumable, keyed and printed as a scenario."""

    def _sweep(self, name, tmp_path, capsys, *flags, options=None,
               plan=None):
        """(cells as --json prints them, manifest) of one CLI run of the
        ``x`` = 1, 2, 3 grid over *name* against the ``cache`` fixture's
        directory."""
        from repro.cli import main

        doc = {"name": name, "description": "x grid", "experiment": name,
               "options": options or {},
               "axes": [{"name": "x", "values": [1, 2, 3]}]}
        if plan is not None:
            doc["plan"] = plan
        matrix = tmp_path / "grid.json"
        matrix.write_text(json.dumps(doc))
        manifest = tmp_path / "sweep.json"
        main(["scenario", "run", "--matrix", str(matrix), "--json",
              "--cache-dir", str(tmp_path / "cache"),
              "--manifest", str(manifest), *flags])
        return (json.loads(capsys.readouterr().out),
                json.loads(manifest.read_text()))

    def test_sweep_covers_grid_and_checkpoints(self, cache, counting_spec,
                                               tmp_path, capsys):
        _, calls = counting_spec
        cells, manifest = self._sweep("toy-count", tmp_path, capsys)
        assert calls["n"] == 3
        assert [c["cell"] for c in cells] == ["1", "2", "3"]
        assert [c["config"]["x"] for c in cells] == [1, 2, 3]
        assert not any(c["cached"] for c in cells)
        assert sorted(cached_keys(cache)) == sorted(c["key"] for c in cells)
        assert manifest["kind"] == "scenario"
        assert manifest["config"]["scenario"] == "toy-count"
        assert manifest["counters"]["scenario.cells_total"] == 3

    def test_cell_manifest_counts_stop_at_its_own_cell(self, cache,
                                                       counting_spec):
        """Cells share one metrics registry and every manifest is built
        only when read, here after the last cell: each cell's counters
        are still the values at the end of that cell, never a later
        cell's."""
        from repro.scenarios import (ScenarioConfig, run_scenario,
                                     scenario_from_dict)

        spec, _ = counting_spec
        result = run_scenario(ScenarioConfig(scenario_from_dict({
            "name": "toy-count", "description": "test",
            "experiment": spec.name,
            "axes": [{"name": "x", "values": [1, 2, 3]}]})), cache=cache)
        assert [r.manifest["counters"] for r in result.results] == [
            {"experiment.cache_miss": 1, "scenario.cells_total": 1},
            {"experiment.cache_miss": 2, "scenario.cells_computed": 1,
             "scenario.cells_total": 2},
            {"experiment.cache_miss": 3, "scenario.cells_computed": 2,
             "scenario.cells_total": 3}]
        assert result.manifest["counters"] == {
            "experiment.cache_miss": 3, "scenario.cells_computed": 3,
            "scenario.cells_total": 3}
        assert all(r.manifest["git_rev"] for r in result.results)

    def test_interrupted_sweep_resumes(self, cache, counting_spec,
                                       tmp_path, capsys):
        """A killed sweep's finished cells are served from checkpoint on
        rerun; only unfinished cells recompute."""
        _, calls = counting_spec
        # Finish cell x=1 as a standalone run (same content address the
        # sweep will compute), as if a prior sweep died after it.
        run_experiment("toy-count", overrides={"x": 1}, cache=cache)
        assert calls["n"] == 1

        cells, manifest = self._sweep("toy-count", tmp_path, capsys)
        assert calls["n"] == 3  # x=2 and x=3 only
        assert [c["cached"] for c in cells] == [True, False, False]
        counters = manifest["counters"]
        assert counters["experiment.cache_hit"] == 1
        assert counters["experiment.cache_miss"] == 2
        assert manifest["aggregates"] == {
            "cells_total": 3, "cells_cached": 1, "cells_computed": 2}

    def test_producer_crash_leaves_no_torn_cell(self, cache, tmp_path,
                                                capsys, toy_register):
        state = {"fail": True, "calls": 0}

        def flaky(ctx):
            state["calls"] += 1
            if ctx.params["x"] == 2 and state["fail"]:
                raise RuntimeError("injected producer crash")
            return [{"x": ctx.params["x"]}]

        toy_register(ExperimentSpec(name="toy-flaky", description="d",
                                    producer=flaky, defaults={"x": 1}))
        with pytest.raises(RuntimeError, match="injected"):
            self._sweep("toy-flaky", tmp_path, capsys)
        assert state["calls"] == 2  # x=1 landed, x=2 died
        assert len(cached_keys(cache)) == 1

        state["fail"] = False
        _, manifest = self._sweep("toy-flaky", tmp_path, capsys)
        # x=1 resumed from checkpoint; x=2, x=3 computed fresh.
        assert state["calls"] == 4
        assert manifest["aggregates"]["cells_cached"] == 1
        assert manifest["counters"]["experiment.cache_miss"] == 2

    def test_full_rerun_is_all_resumed(self, counting_spec, tmp_path,
                                       capsys):
        first, _ = self._sweep("toy-count", tmp_path, capsys)
        second, manifest = self._sweep("toy-count", tmp_path, capsys)
        assert manifest["aggregates"] == {
            "cells_total": 3, "cells_cached": 3, "cells_computed": 0}
        assert "experiment.cache_miss" not in manifest["counters"]
        assert [c["rows"] for c in second] == [c["rows"] for c in first]

    def test_sweep_base_overrides(self, counting_spec, tmp_path, capsys):
        cells, manifest = self._sweep("toy-count", tmp_path, capsys,
                                      options={"y": "b"})
        assert all(c["config"]["y"] == "b" for c in cells)
        assert manifest["config"]["options"] == {"y": "b"}
        # Grid values win over base options on collision.
        cells, _ = self._sweep("toy-count", tmp_path, capsys,
                               options={"x": 99})
        assert [c["config"]["x"] for c in cells] == [1, 2, 3]
        with pytest.raises(SystemExit, match="unknown parameter 'z'"):
            self._sweep("toy-count", tmp_path, capsys, options={"z": 1})

    def test_seed_plan_and_force(self, cache, counting_spec, tmp_path,
                                 capsys):
        """``--seed`` reaches every cell, the matrix's ``plan`` is keyed
        into every cell's address, ``--force`` recomputes finished
        cells."""
        from repro.faults import NAMED_PLANS

        _, calls = counting_spec
        clean, _ = self._sweep("toy-count", tmp_path, capsys, "--seed", "9")
        assert [c["rows"][0]["seed"] for c in clean] == [9, 9, 9]
        chaos, manifest = self._sweep("toy-count", tmp_path, capsys,
                                      "--seed", "9", plan="ci-smoke")
        assert manifest["config"]["plan"] == "ci-smoke"
        assert not {c["key"] for c in chaos} & {c["key"] for c in clean}
        assert chaos[0]["key"] == run_experiment(
            "toy-count", overrides={"x": 1}, seed=9, cache=cache,
            plan=NAMED_PLANS["ci-smoke"]).key
        assert calls["n"] == 6
        forced, _ = self._sweep("toy-count", tmp_path, capsys,
                                "--seed", "9", "--force")
        assert calls["n"] == 9
        assert not any(c["cached"] for c in forced)
        with pytest.raises(SystemExit, match="repro: .*unknown fault plan"):
            self._sweep("toy-count", tmp_path, capsys, plan="nope")


class TestCacheStore:
    def test_atomic_files_only(self, cache, counting_spec):
        run_experiment("toy-count", cache=cache)
        names = []
        for root, _dirs, files in os.walk(cache.root):
            names.extend(files)
        assert all(not n.startswith(".tmp-") for n in names)
        assert len(cached_keys(cache)) == 1

    def test_entry_metadata_round_trip(self, cache, counting_spec):
        r = run_experiment("toy-count", seed=9, cache=cache)
        entry = cache.load(r.key)
        assert entry["spec"] == "toy-count"
        assert entry["seed"] == 9
        assert entry["config"] == r.config
        assert entry["rows"] == r.rows


class TestExperimentCli:
    def _run(self, argv, tmp_path, capsys):
        from repro.cli import main

        main(argv + ["--cache-dir", str(tmp_path / "cli-cache")])
        return capsys.readouterr()

    @pytest.fixture
    def toy(self, toy_register):
        toy_register(ExperimentSpec(
            name="toy-cli", description="cli test",
            producer=lambda ctx: [{"x": ctx.params["x"],
                                   "seed": ctx.seed}],
            defaults={"x": 1}, seed=3))

    def test_list(self, capsys):
        from repro.cli import main

        main(["experiment", "list"])
        out = capsys.readouterr().out
        assert "fig04-contiguity-cdf" in out
        main(["experiment", "list", "--json"])
        specs = json.loads(capsys.readouterr().out)
        assert any(s["name"] == "fleet-survey" for s in specs)

    def test_run_twice_stdout_identical_status_on_stderr(
            self, toy, tmp_path, capsys):
        first = self._run(["experiment", "run", "toy-cli", "--json"],
                          tmp_path, capsys)
        second = self._run(["experiment", "run", "toy-cli", "--json"],
                           tmp_path, capsys)
        assert first.out == second.out  # byte-identical rows
        assert "[computed]" in first.err
        assert "[cache hit]" in second.err
        assert json.loads(first.out) == [{"x": 1, "seed": 3}]

    def test_run_set_overrides_and_seed(self, toy, tmp_path, capsys):
        out = self._run(["experiment", "run", "toy-cli", "--json",
                         "--set", "x=7", "--seed", "1"],
                        tmp_path, capsys).out
        assert json.loads(out) == [{"x": 7, "seed": 1}]

    @pytest.mark.parametrize("name,pair,complaint", [
        ("workload-steady", "steps=abc",
         "parameter 'steps' expects integer, got string 'abc'"),
        ("fleet-survey", "n_servers=2.5",
         "parameter 'n_servers' expects integer, got float 2.5"),
        ("workload-steady", "mem_mib=true",
         "parameter 'mem_mib' expects integer, got boolean True"),
        ("tail-latency-interference", "duration_ms=Infinity",
         "parameter 'duration_ms' must be finite, got inf"),
        ("tail-latency-interference", "duration_ms=NaN",
         "parameter 'duration_ms' must be finite, got nan"),
    ])
    def test_set_of_the_wrong_type_is_refused_by_name(
            self, name, pair, complaint, tmp_path, capsys):
        """Each of these used to get past the parameter check: a
        TypeError from inside WorkloadConfig, one from the fleet engine,
        a silent 1 MiB machine, and a cache key that cannot hold a
        non-finite float."""
        with pytest.raises(SystemExit) as info:
            self._run(["experiment", "run", name, "--set", pair],
                      tmp_path, capsys)
        assert str(info.value) == f"repro: experiment {name!r}: {complaint}"
        assert not os.path.exists(tmp_path / "cli-cache")  # nothing ran

    def test_bad_set_spelling(self, toy, tmp_path, capsys):
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            self._run(["experiment", "run", "toy-cli", "--set", "x"],
                      tmp_path, capsys)

    def test_sweep_and_report(self, toy, tmp_path, capsys):
        matrix = tmp_path / "grid.json"
        matrix.write_text(json.dumps({
            "name": "toy-cli", "description": "x grid",
            "experiment": "toy-cli",
            "axes": [{"name": "x", "values": [1, 2]}]}))
        swept = self._run(["scenario", "run", "--matrix", str(matrix)],
                          tmp_path, capsys)
        assert "# scenario toy-cli: 2 cell(s), 0 cached" in swept.err
        assert "## Cell grid" in swept.out
        reported = self._run(["experiment", "report", "toy-cli",
                              "--set", "x=2", "--json"],
                             tmp_path, capsys)
        assert json.loads(reported.out) == [{"x": 2, "seed": 3}]

    def test_report_miss_exits(self, toy, tmp_path, capsys):
        with pytest.raises(SystemExit, match="no cached result"):
            self._run(["experiment", "report", "toy-cli",
                       "--set", "x=9"], tmp_path, capsys)

    @pytest.mark.parametrize("argv,message", [
        (["experiment", "report", "fig06-sources"],
         "repro: no cached result for 'fig06-sources' with this "
         "config/seed; run `repro experiment run fig06-sources` first"),
        (["experiment", "run", "fig06-sources", "--set", "novalue"],
         "repro: --set expects KEY=VALUE, got 'novalue'"),
        # Either order of the two flags is refused, naming the key:
        # neither value may win by coming last.
        (["experiment", "run", "s53-hwcost", "--set", "cores=2",
          "--set", "cores=4"], "repro: --set gives 'cores' twice"),
        (["scenario", "run", "steady-web", "--smoke", "--set",
          "design=bogus", "--set", "design=none"],
         "repro: --set gives 'design' twice"),
        (["scenario", "run", "steady-web", "--smoke", "--set",
          "design=none", "--set", "design=bogus"],
         "repro: --set gives 'design' twice"),
    ], ids=["report-miss", "set-spelling", "set-twice", "pin-twice",
            "pin-twice-reversed"])
    def test_user_errors_are_one_repro_line(self, argv, message, tmp_path,
                                            capsys):
        """A string exit code is printed as one stderr line and exits
        with status 1, like every other refused input."""
        with pytest.raises(SystemExit) as info:
            self._run(argv, tmp_path, capsys)
        assert info.value.code == message


class TestSpecFormsOfRemovedVerbs:
    """``repro fleet``, ``chaos`` and ``loadgen`` went because these
    specs run the same simulations (docs/API.md, "Removed CLI verbs")."""

    #: The uptimes ``repro fleet`` used: ``ServerConfig``'s defaults.
    FLEET = {"n_servers": 2, "mem_mib": 64, "min_uptime_steps": 50,
             "max_uptime_steps": 800}

    def test_fleet_survey_rows_are_the_fleet_verbs_scans(self, cache):
        from repro.faults import NAMED_PLANS
        from repro.fleet import FleetConfig, ServerConfig, run_fleet
        from repro.units import MiB

        rows = run_experiment("fleet-survey", self.FLEET, seed=5,
                              workers=1, cache=cache).rows
        sample = run_fleet(FleetConfig(
            n_servers=2, server=ServerConfig(mem_bytes=MiB(64)),
            base_seed=5, workers=1))
        assert canonical_json(rows) == canonical_json(
            [scan.snapshot() for scan in sample.scans])
        # `chaos --plan crash-only`: every first attempt dies, the retry
        # replays the seed, and the rows are the clean rows.
        crashed = run_experiment("fleet-survey", self.FLEET, seed=5,
                                 workers=1, cache=cache,
                                 plan=NAMED_PLANS["crash-only"])
        assert not crashed.cached
        assert canonical_json(crashed.rows) == canonical_json(rows)

    def test_tail_latency_rows_are_the_loadgen_verbs_rows(self, cache):
        from repro.workloads import LoadgenConfig, run_loadgen

        rows = run_experiment("tail-latency-interference",
                              {"rate_krps": 500, "duration_ms": 0.5},
                              seed=17, cache=cache).rows
        burst = run_loadgen(LoadgenConfig(
            rate_rps=500_000.0, duration_s=0.0005, buffer_pages=8,
            seed=17))
        cell = {"shape", "app", "design", "rate_krps", "windows",
                "achieved_rps"}
        assert [{k: v for k, v in row.items() if k not in cell}
                for row in rows] == burst.rows()
        assert {(row["windows"], row["achieved_rps"]) for row in rows} == {
            (burst.windows_seen, round(burst.achieved_rps, 3))}


#: The committed figure outputs, one ``<spec name with - as _>.txt``
#: per figure spec, regenerated by ``benchmarks/bench_figures.py``.
BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"

#: A fleet survey small enough for Tier-1, shared by the survey figures.
SMALL_SURVEY = {"n_servers": 6, "mem_mib": 64}

#: Figure specs with overrides that keep the test short; those run at
#: full size (no overrides) must print their committed result file.
FIGURE_SPECS = {
    "fig02-hwgen": {},
    "fig03-walk-cycles": {"instructions": 20_000},
    "fig05-unmovable-cdf": SMALL_SURVEY,
    "fig13-unavailable": {},
    "s24-uptime-corr": SMALL_SURVEY,
    "s53-interference": {},
    "s53-hwcost": {},
    "alg1-resizing": {},
    "ablation-autotune": {"trials": 2},
    "ablation-designs": {},
    "ablation-placement": {},
}

#: The figures over the one steady-state profiling run.
STEADY_FIGURES = ("fig11-unmovable", "fig12-potential", "s52-internal-frag")


def _bench_figures():
    """``benchmarks/bench_figures.py``, imported by path."""
    import importlib.util

    loader = importlib.util.spec_from_file_location(
        "bench_figures", BENCHMARKS / "bench_figures.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


@pytest.fixture(scope="class")
def figure_cache(tmp_path_factory):
    """One cache for the class, so the survey figures share a survey."""
    return tmp_path_factory.mktemp("figures")


class TestFigureSpecs:
    @pytest.mark.parametrize("name", sorted(FIGURE_SPECS))
    def test_one_path_cached_json_and_pure_report(self, name, figure_cache,
                                                  capsys):
        from repro.cli import main

        overrides = FIGURE_SPECS[name]
        argv = ["experiment", "run", name, "--cache-dir", str(figure_cache)]
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value}"]

        main(argv)
        fresh = capsys.readouterr()
        main(argv)
        again = capsys.readouterr()
        assert "[computed]" in fresh.err and "[cache hit]" in again.err
        assert again.out == fresh.out
        if not overrides:
            committed = BENCHMARKS / "results" / (
                name.replace("-", "_") + ".txt")
            assert fresh.out == committed.read_text()

        main(argv + ["--json"])
        rows = json.loads(capsys.readouterr().out)
        if name == "ablation-autotune":  # the default, then each trial
            assert [row["trial"] for row in rows] == list(
                range(overrides["trials"] + 1))
        cache = ResultCache(str(figure_cache))
        hit = run_experiment(name, overrides=overrides, cache=cache)
        loaded = load_cached(name, overrides=overrides, cache=cache)
        assert hit.cached and hit.rows == loaded.rows == rows
        assert canonical_json(hit.rows) == canonical_json(rows)
        # The report is a function of the rows alone: fresh, cached and
        # cache-only renderings are the same bytes.
        assert hit.report() + "\n" == loaded.report() + "\n" == fresh.out
        assert hit.spec.postprocess(rows, hit.config) == hit.report()

    def test_seed_policy_and_defaults_are_the_bench_constants(self):
        survey = {"n_servers": 24, "mem_mib": 512}
        expected = {
            "fig02-hwgen": (0, {}),
            "fig03-walk-cycles": (3, {"instructions": 150_000}),
            "fig04-contiguity-cdf": (11, survey),
            "fig05-unmovable-cdf": (11, survey),
            "fig06-sources": (11, survey),
            "s24-uptime-corr": (11, survey),
            "fig10-endtoend": (7, {}),
            "steady-profile": (42, {}),
            "fig11-unmovable": (42, {}),
            "fig12-potential": (42, {}),
            "s52-internal-frag": (42, {}),
            "fig13-unavailable": (0, {}),
            "s53-interference": (0, {}),
            "s53-hwcost": (0, {}),
            "alg1-resizing": (0, {}),
            "ablation-autotune": (5, {"trials": 24}),
            "ablation-designs": (3, {}),
            "ablation-placement": (5, {}),
            "ablation-pcp": (13, {}),
        }
        pinned = {name: (get_spec(name).seed, dict(get_spec(name).defaults))
                  for name in expected}
        assert pinned == expected

    def test_steady_figures_share_one_profile_run(self, tmp_path,
                                                  monkeypatch):
        """Figs. 11, 12 and §5.2 fetch one ``steady-profile`` cell: one
        simulation for the three, cached across processes, and each
        report renders from its rows alone."""
        from repro.experiments import steady
        from repro.telemetry import MetricsRegistry

        monkeypatch.setattr(steady, "_STEADY_MEM_MIB", 64)
        monkeypatch.setattr(steady, "_STEADY_STEPS", 30)
        cache = ResultCache(str(tmp_path))
        metrics = MetricsRegistry()
        results = [run_experiment(name, cache=cache, metrics=metrics)
                   for name in STEADY_FIGURES]
        assert sorted(cache.load(key)["spec"]
                      for key in cached_keys(cache)) == \
            sorted(STEADY_FIGURES + ("steady-profile",))
        counters = metrics.counters.snapshot()
        assert counters["experiment.cache_miss"] == 4  # 3 figures + 1 run
        assert counters["experiment.cache_hit"] == 2
        for result in results:
            loaded = load_cached(result.spec.name, cache=cache)
            assert loaded.rows == result.rows
            assert loaded.report() == result.report() == \
                result.spec.postprocess(loaded.rows, loaded.config)

    def test_every_result_file_is_a_checked_spec(self):
        """The bench file regenerates exactly the committed results: one
        per spec that declares claims, each with a report.  No check
        function is left beside it; the claims are on the specs."""
        names = set(_bench_figures().FIGURES)
        stems = {path.stem for path in (BENCHMARKS / "results").glob("*.txt")}
        assert stems == {name.replace("-", "_") for name in names}
        assert len(names) == 18
        for name in names:
            assert get_spec(name).postprocess is not None, name
            assert get_spec(name).claims, name
        source = (BENCHMARKS / "bench_figures.py").read_text()
        assert source.count("def ") == 1  # the one parametrised test


#: Each figure's resolved default config and the rows its committed
#: results file was rendered from, as a fresh-cache
#: ``benchmarks/bench_figures.py`` run produced them.
FIGURE_ROWS = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "figure_rows.json")
    .read_text())


class TestCommittedReports:
    """Every figure's report at full size, from committed rows: the
    renderer alone, with no simulation behind it."""

    def test_the_rows_are_every_figure_at_its_defaults(self):
        assert sorted(FIGURE_ROWS) == sorted(_bench_figures().FIGURES)
        for name, cell in FIGURE_ROWS.items():
            assert cell["config"] == get_spec(name).resolve(), name

    @pytest.mark.parametrize("name", sorted(FIGURE_ROWS))
    def test_the_report_is_the_committed_results_file(self, name):
        cell = FIGURE_ROWS[name]
        report = get_spec(name).postprocess(cell["rows"], cell["config"])
        assert report + "\n" == (BENCHMARKS / "results" / (
            name.replace("-", "_") + ".txt")).read_text()

    def test_experiments_md_quotes_each_results_file_once(self):
        """EXPERIMENTS.md shows each figure's measured numbers as its
        results file, in a ``text`` block under a ``results/<file>``
        marker, which ``bench_figures.py`` rewrites with the file."""
        doc = (BENCHMARKS.parent / "EXPERIMENTS.md").read_text()
        blocks = re.findall(
            r"<!-- results/([a-z0-9_]+\.txt) -->\n```text\n(.*?)```\n",
            doc, re.S)
        files = sorted(path.name
                       for path in (BENCHMARKS / "results").glob("*.txt"))
        assert doc.count("<!-- results/") == len(blocks)
        assert sorted(name for name, _ in blocks) == files
        for name, body in blocks:
            assert body == (BENCHMARKS / "results" / name).read_text(), name

    def test_readme_headline_numbers_are_the_results_files(self):
        """README's "Reproduction summary" quotes fig11 and fig13.  The
        rounding rule: a range rounds outward to whole percent (floor
        of the least workload, ceiling of the greatest), so it holds
        every measured value; an average rounds to the nearest whole
        percent; cycles round to the nearest hundred, in thousands."""
        def column(text, index):
            return {line.split()[0]: float(line.split()[index].rstrip("%"))
                    for line in text.splitlines()[3:] if line.strip()}

        fig11 = (BENCHMARKS / "results" / "fig11_unmovable.txt").read_text()
        quoted = []
        for index in (1, 2):
            shares = column(fig11, index)
            average = shares.pop("average")
            quoted.append(f"{math.floor(min(shares.values()))}-"
                          f"{math.ceil(max(shares.values()))} % "
                          f"(avg {round(average)} %)")
        fig13 = (BENCHMARKS / "results" / "fig13_unavailable.txt").read_text()
        linux_sim = column(fig13.split("\n\n")[0], 2)
        readme = " ".join((BENCHMARKS.parent / "README.md").read_text()
                          .split())
        assert (f"Linux {quoted[0]} vs Contiguitas {quoted[1]} —"
                in readme)
        assert f"(~{linux_sim['7'] / 1000:.1f}K cycles at 7)" in readme


class TestTable:
    """``spec.Table``: a report that is one table over the rows."""

    TABLE = Table("T", (("Name", "{name}"), ("Share", "{share:.1%}"),
                        ("Raw", lambda row: row["share"] * 2),
                        ("Nested", "{sub[2m]:.0%}")),
                  lambda rows: ("total", len(rows), "", ""))

    def test_cells_render_through_format_table(self):
        rows = [{"name": "a", "share": 0.3141, "sub": {"2m": 0.5}},
                {"name": "bb", "share": 1.0, "sub": {"2m": 0.25}}]
        from repro.analysis import format_table

        assert self.TABLE(rows, {}) == format_table(
            ["Name", "Share", "Raw", "Nested"],
            [["a", "31.4%", 0.6282, "50%"], ["bb", "100.0%", 2.0, "25%"],
             ["total", 2, "", ""]], title="T")
        assert self.TABLE(rows, {}).splitlines()[3].split() == [
            "a", "31.4%", "0.6282", "50%"]

    def test_a_table_is_a_postprocess(self, toy_register, cache):
        spec = toy_register(ExperimentSpec(
            name="toy-table", description="table test",
            producer=lambda ctx: [{"name": "x", "share": 0.5,
                                   "sub": {"2m": 1.0}}],
            postprocess=self.TABLE))
        assert spec.postprocess is self.TABLE
        assert "50.0%" in run_experiment("toy-table", cache=cache).report()


def _toy_claims_spec(toy_register, *claims):
    """Register a spec whose one row depends on the seed, carrying
    *claims*."""
    return toy_register(ExperimentSpec(
        name="toy-claims", description="claims test", seed=10,
        producer=lambda ctx: [{"seed": ctx.seed, "x": ctx.seed % 10,
                               "y": 5}],
        claims=claims))


class TestClaims:
    """``ExperimentSpec.claims``: typed band and ordering predicates over
    rows, verified on several seeds by ``repro experiment verify``."""

    ROWS = [{"k": "a", "v": 1.0}, {"k": "b", "v": 2.0},
            {"k": "c", "v": 2.0}]

    def test_band_ends_are_inclusive_and_may_be_open(self):
        assert Band("b", "p", lambda rows: 2.0, 1.0, 2.0).evaluate(
            self.ROWS) == (True, "2")
        assert Band("b", "p", lambda rows: 0.5, lo=1.0).evaluate(
            self.ROWS) == (False, "0.5")
        assert Band("b", "p", lambda rows: -9, hi=0).evaluate(self.ROWS)[0]
        assert Band("b", "p", lambda rows: 7, 7, 7).expected == "= 7"
        assert Band("b", "p", lambda rows: 7, lo=1).expected == ">= 1"
        assert Band("b", "p", lambda rows: 7, 1, 2.5).expected == "1 .. 2.5"

    def test_ordered_compares_neighbours(self):
        values = lambda rows: [row["v"] for row in rows]  # noqa: E731
        assert Ordered("o", "p", values, "<=").evaluate(self.ROWS) == (
            True, "1 <= 2 <= 2")
        assert not Ordered("o", "p", values, "<").evaluate(self.ROWS)[0]
        assert not Ordered("o", "p", values, "==").evaluate(self.ROWS)[0]
        assert Ordered("o", "p", lambda rows: [3, 3, 3], "==").evaluate(
            self.ROWS) == (True, "3 x 3")
        # A single value orders nothing: the claim cannot hold.
        assert not Ordered("o", "p", lambda rows: [1]).evaluate(self.ROWS)[0]

    def test_a_mapping_states_the_claim_per_label(self):
        band = Band("b", "p", lambda rows: {row["k"]: row["v"]
                                            for row in rows}, hi=1.5)
        assert band.evaluate(self.ROWS) == (False, "b: 2")
        assert band.evaluate(self.ROWS[:1]) == (True, "a: 1")
        chain = Ordered("o", "p", lambda rows: {"up": [1, 2], "down": [2, 1]})
        assert chain.evaluate(self.ROWS) == (False, "down: 2 < 1")
        # Measuring no label at all measures nothing: the claim breaks.
        assert Band("b", "p", lambda rows: {}, lo=1).evaluate([]) == (
            False, "no labels measured")

    def test_a_measure_that_cannot_read_the_rows_breaks_the_claim(self):
        held, text = Band("b", "p", lambda rows: rows[0]["missing"],
                          lo=0).evaluate(self.ROWS)
        assert not held and text == "KeyError: 'missing'"
        held, text = Band("b", "p", lambda rows: 1 / 0, lo=0).evaluate([])
        assert not held and text.startswith("ZeroDivisionError")

    @pytest.mark.parametrize("make,match", [
        (lambda: Band("Bad Id", "p", len, lo=0), "kebab-case"),
        (lambda: Band("b", "", len, lo=0), "paper"),
        (lambda: Band("b", "p", 3, lo=0), "callable"),
        (lambda: Band("b", "p", len), "lo, hi or both"),
        (lambda: Band("b", "p", len, 2, 1), "above hi"),
        (lambda: Ordered("o", "p", len, ">"), "op must be one of"),
        (lambda: ExperimentSpec(name="x", description="d",
                                producer=lambda ctx: [],
                                claims=(Band("b", "p", len, lo=0),) * 2),
         "distinct ids"),
        (lambda: ExperimentSpec(name="x", description="d",
                                producer=lambda ctx: [],
                                claims=("x > 1",)), "Claim instances"),
    ])
    def test_validation(self, make, match):
        with pytest.raises(ConfigurationError, match=match):
            make()

    def test_verify_runs_the_spec_seed_and_the_ones_after_it(
            self, cache, toy_register):
        _toy_claims_spec(toy_register,
                         Band("x-small", "x below 2",
                              lambda rows: rows[0]["x"], hi=1),
                         Ordered("x-below-y", "x < y",
                                 lambda rows: [rows[0]["x"], rows[0]["y"]]))
        verdicts = verify_claims(["toy-claims"], cache=cache)
        assert [(v.claim.id, v.seeds, v.measured, v.broken)
                for v in verdicts] == [
            ("x-small", (10, 11, 12), ("0", "1", "2"), (12,)),
            ("x-below-y", (10, 11, 12), ("0 < 5", "1 < 5", "2 < 5"), ())]
        assert [v.held for v in verdicts] == [False, True]
        assert verdicts[0].snapshot()["kind"] == "band"
        # The seeds are cached cells: a rerun computes nothing.
        assert len(cached_keys(cache)) == 3
        assert verify_claims(["toy-claims"], seeds=5,
                             cache=cache)[0].broken == (12, 13, 14)
        assert len(cached_keys(cache)) == 5

    def test_verify_refuses_a_spec_without_claims(self, counting_spec, cache):
        with pytest.raises(ConfigurationError, match="declares no claims"):
            verify_claims(["toy-count"], cache=cache)
        with pytest.raises(ConfigurationError, match="seeds must be >= 1"):
            verify_claims(["toy-count"], seeds=0, cache=cache)

    def test_cli_prints_the_index_and_exits_1_on_a_broken_claim(
            self, tmp_path, capsys, toy_register):
        from repro.cli import main

        _toy_claims_spec(toy_register,
                         Band("x-small", "x below 2",
                              lambda rows: rows[0]["x"], hi=1))
        # A name given twice is verified once.
        argv = ["experiment", "verify", "toy-claims", "toy-claims",
                "--cache-dir", str(tmp_path / "cache")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        broken = capsys.readouterr()
        assert ("| [`toy-claims`](../EXPERIMENTS.md#toy-claims) | "
                "`x-small` | x below 2 | <= 1 | 10/11/12: 0 / 1 / 2 | "
                "**broken** on seed 12 |") in broken.out
        assert "# 0 of 1 claim(s) held on every seed" in broken.err
        with pytest.raises(SystemExit) as info:
            main(argv + ["--json"])
        assert info.value.code == ("repro: 1 claim(s) broken: "
                                   "toy-claims:x-small")
        record, = json.loads(capsys.readouterr().out)
        assert (record["held"], record["broken"]) == (False, [12])
        for bad in ([], ["--all"]):
            with pytest.raises(SystemExit, match="or pass --all"):
                main(["experiment", "verify", *bad,
                      *(["toy-claims"] if bad else [])])

    def test_an_equal_chain_on_every_seed_is_vacuous(self, tmp_path,
                                                     capsys, toy_register):
        """``5 <= 5`` on every seed holds on any simulator: ``verify``
        reports it vacuous and exits 1 naming it, as it does a broken
        claim; an ``<=`` chain that moves on some seed is evidence."""
        from repro.cli import main

        _toy_claims_spec(toy_register,
                         Ordered("y-constant", "y never grows",
                                 lambda rows: [rows[0]["y"]] * 2, "<="),
                         Ordered("x-at-most-y", "x <= y",
                                 lambda rows: [rows[0]["x"],
                                               rows[0]["y"]], "<="))
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(SystemExit) as info:
            main(["experiment", "verify", "toy-claims",
                  "--cache-dir", cache_dir])
        assert info.value.code == ("repro: 1 claim(s) vacuous: "
                                   "toy-claims:y-constant")
        out = capsys.readouterr()
        assert ("| `y-constant` | y never grows | each <= the next | "
                "10/11/12: 5 <= 5 | **vacuous**: equal on every seed |"
                in out.out)
        assert "# 1 of 2 claim(s) held on every seed" in out.err
        verdicts = verify_claims(["toy-claims"],
                                 cache=ResultCache(cache_dir))
        assert [(v.vacuous, v.held, v.broken) for v in verdicts] == [
            (True, False, ()), (False, True, ())]
        assert verdicts[0].snapshot()["vacuous"] is True

    def test_every_figure_claim_reads_its_rows_and_can_break(self, cache):
        """Fig. 13 runs in milliseconds: its claims hold on its rows and
        a row moved off the paper's value breaks exactly its claim."""
        result = run_experiment("fig13-unavailable", cache=cache)
        spec = result.spec
        assert all(claim.evaluate(result.rows)[0] for claim in spec.claims)
        rows = [dict(row, copy_cycles=2000) for row in result.rows]
        assert [claim.id for claim in spec.claims
                if not claim.evaluate(rows)[0]] == ["copy-cycles"]
        rows = [dict(row, contiguitas=row["contiguitas"] + row["victims"])
                for row in result.rows]
        assert [claim.id for claim in spec.claims
                if not claim.evaluate(rows)[0]] == ["contiguitas-constant"]

    def test_the_committed_index_is_every_claim_held_on_three_seeds(self):
        """``docs/CLAIMS.md`` is ``repro experiment verify --all``'s
        output: one line per declared claim in spec order, each with
        the paper value and range its spec declares, each held, and
        each spec's link landing on an EXPERIMENTS.md anchor."""
        root = BENCHMARKS.parent
        lines = [line for line in
                 (root / "docs" / "CLAIMS.md").read_text().splitlines()
                 if line.startswith("| [`")]
        assert [line.split(" | ")[:4] for line in lines] == [
            [f"| [`{spec.name}`](../EXPERIMENTS.md#{spec.name})",
             f"`{claim.id}`", claim.paper, claim.expected]
            for spec in all_specs() for claim in spec.claims]
        assert all(line.endswith(" | held |") and re.match(
            r"\d+/\d+/\d+: ", line.split(" | ")[4]) for line in lines)
        experiments = (root / "EXPERIMENTS.md").read_text()
        for spec in all_specs():
            if spec.claims:
                assert f'<a id="{spec.name}"></a>' in experiments, spec.name
