"""Experiment orchestration: specs, content-addressed cache, sweeps.

Every test uses a ``tmp_path`` cache root and registers throwaway specs
(cleaned up via ``unregister``), so nothing leaks into the durable
``benchmarks/results/cache`` store or the built-in registry.
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    CACHE_ENV,
    ExperimentSpec,
    ResultCache,
    all_specs,
    axes_from_grid,
    canonical_json,
    default_cache_dir,
    get_spec,
    load_cached,
    register,
    result_key,
    run_experiment,
    run_sweep,
    unregister,
)
from repro.faults import FaultPlan, FaultSpec


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


@pytest.fixture
def counting_spec():
    """A registered toy spec whose producer counts its invocations."""
    calls = {"n": 0}

    def producer(ctx):
        calls["n"] += 1
        return [{"x": ctx.params["x"], "seed": ctx.seed,
                 "call": calls["n"]}]

    spec = register(ExperimentSpec(
        name="toy-count", description="test", producer=producer,
        defaults={"x": 1, "y": "a"},
        axes=axes_from_grid({"x": (1, 2, 3)}), seed=5))
    yield spec, calls
    unregister("toy-count")


class TestSpecRegistry:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="kebab-case"):
            ExperimentSpec(name="Bad_Name", description="",
                           producer=lambda ctx: [])
        with pytest.raises(ConfigurationError, match="JSON scalar"):
            ExperimentSpec(name="x", description="",
                           producer=lambda ctx: [],
                           defaults={"k": [1, 2]})
        with pytest.raises(ConfigurationError, match="no default"):
            ExperimentSpec(name="x", description="",
                           producer=lambda ctx: [],
                           axes=axes_from_grid({"k": (1,)}))
        with pytest.raises(ConfigurationError, match="version"):
            ExperimentSpec(name="x", description="",
                           producer=lambda ctx: [], version=0)

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
        return ExperimentSpec(name="typed", description="",
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

    def test_cells_deterministic(self, counting_spec):
        spec, _ = counting_spec
        assert spec.cells() == [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_builtins_registered(self):
        names = [s.name for s in all_specs()]
        for expected in ("fleet-survey", "fig04-contiguity-cdf",
                         "fig06-sources"):
            assert expected in names


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

    def test_producer_must_return_list(self, cache):
        register(ExperimentSpec(name="toy-bad", description="",
                                producer=lambda ctx: {"not": "a list"}))
        try:
            with pytest.raises(ConfigurationError, match="list"):
                run_experiment("toy-bad", cache=cache)
        finally:
            unregister("toy-bad")

    def test_manifest_written_to_path(self, cache, counting_spec,
                                      tmp_path):
        path = tmp_path / "run.json"
        run_experiment("toy-count", cache=cache,
                       manifest_path=str(path))
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


class TestNestedFetch:
    def test_figures_share_one_dependency_run(self, cache):
        calls = {"dep": 0}

        def dep_producer(ctx):
            calls["dep"] += 1
            return [{"v": ctx.params["n"] * 10}]

        def fig_producer(ctx):
            rows = ctx.fetch("toy-dep", overrides={"n": ctx.params["n"]})
            return [{"derived": rows[0]["v"] + 1}]

        register(ExperimentSpec(name="toy-dep", description="",
                                producer=dep_producer, defaults={"n": 2}))
        register(ExperimentSpec(name="toy-fig-a", description="",
                                producer=fig_producer, defaults={"n": 2}))
        register(ExperimentSpec(name="toy-fig-b", description="",
                                producer=fig_producer, defaults={"n": 2}))
        try:
            a = run_experiment("toy-fig-a", cache=cache)
            b = run_experiment("toy-fig-b", cache=cache)
            assert calls["dep"] == 1  # second figure hit the cached dep
            assert a.rows == b.rows == [{"derived": 21}]
            counters = b.manifest["counters"]
            assert counters["experiment.cache_hit"] == 1
        finally:
            for name in ("toy-dep", "toy-fig-a", "toy-fig-b"):
                unregister(name)


class TestSweep:
    def test_sweep_covers_grid_and_checkpoints(self, cache,
                                               counting_spec):
        _, calls = counting_spec
        sweep = run_sweep("toy-count", cache=cache)
        assert len(sweep.results) == 3
        assert calls["n"] == 3
        assert sweep.n_cached == 0
        assert [r.config["x"] for r in sweep.results] == [1, 2, 3]
        counters = sweep.manifest["counters"]
        assert counters["experiment.sweep_cells"] == 3
        assert "experiment.sweep_resumed" not in counters

    def test_interrupted_sweep_resumes(self, cache, counting_spec):
        """A killed sweep's finished cells are served from checkpoint on
        rerun; only unfinished cells recompute."""
        _, calls = counting_spec
        # Finish cell x=1 as a standalone run (same content address the
        # sweep will compute), as if a prior sweep died after it.
        run_experiment("toy-count", overrides={"x": 1}, cache=cache,
                       emit_manifest=False)
        assert calls["n"] == 1

        sweep = run_sweep("toy-count", cache=cache)
        assert calls["n"] == 3  # x=2 and x=3 only
        counters = sweep.manifest["counters"]
        assert counters["experiment.sweep_resumed"] == 1
        assert counters["experiment.cache_hit"] == 1
        assert counters["experiment.cache_miss"] == 2
        assert sweep.manifest["aggregates"] == {
            "cells_total": 3, "cells_cached": 1, "cells_computed": 2}

    def test_producer_crash_leaves_no_torn_cell(self, cache):
        state = {"fail": True, "calls": 0}

        def flaky(ctx):
            state["calls"] += 1
            if ctx.params["x"] == 2 and state["fail"]:
                raise RuntimeError("injected producer crash")
            return [{"x": ctx.params["x"]}]

        register(ExperimentSpec(name="toy-flaky", description="",
                                producer=flaky, defaults={"x": 1},
                                axes=axes_from_grid({"x": (1, 2, 3)})))
        try:
            with pytest.raises(RuntimeError, match="injected"):
                run_sweep("toy-flaky", cache=cache)
            assert state["calls"] == 2  # x=1 landed, x=2 died

            state["fail"] = False
            sweep = run_sweep("toy-flaky", cache=cache)
            # x=1 resumed from checkpoint; x=2, x=3 computed fresh.
            assert state["calls"] == 4
            counters = sweep.manifest["counters"]
            assert counters["experiment.sweep_resumed"] == 1
            assert counters["experiment.cache_miss"] == 2
        finally:
            unregister("toy-flaky")

    def test_full_rerun_is_all_resumed(self, cache, counting_spec):
        run_sweep("toy-count", cache=cache)
        sweep = run_sweep("toy-count", cache=cache)
        counters = sweep.manifest["counters"]
        assert counters["experiment.sweep_resumed"] == 3
        assert "experiment.cache_miss" not in counters

    def test_sweep_base_overrides(self, cache, counting_spec):
        _, calls = counting_spec
        sweep = run_sweep("toy-count", overrides={"y": "b"}, cache=cache)
        assert all(r.config["y"] == "b" for r in sweep.results)
        assert sweep.manifest["config"]["overrides"] == {"y": "b"}
        # Grid values win over base overrides on collision.
        sweep2 = run_sweep("toy-count", overrides={"x": 99}, cache=cache)
        assert [r.config["x"] for r in sweep2.results] == [1, 2, 3]


class TestCacheStore:
    def test_atomic_files_only(self, cache, counting_spec):
        run_experiment("toy-count", cache=cache)
        names = []
        for root, _dirs, files in os.walk(cache.root):
            names.extend(files)
        assert all(not n.startswith(".tmp-") for n in names)
        assert len(cache.keys()) == 1

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
    def toy(self):
        register(ExperimentSpec(
            name="toy-cli", description="cli test",
            producer=lambda ctx: [{"x": ctx.params["x"],
                                   "seed": ctx.seed}],
            defaults={"x": 1}, axes=axes_from_grid({"x": (1, 2)}), seed=3))
        yield
        unregister("toy-cli")

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
    ])
    def test_set_of_the_wrong_type_is_refused_by_name(
            self, name, pair, complaint, tmp_path, capsys):
        """Each of these used to reach the producer: a TypeError from
        inside WorkloadConfig, one from the fleet engine, and a silent
        1 MiB machine."""
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
        swept = self._run(["experiment", "sweep", "toy-cli"],
                          tmp_path, capsys)
        assert "2 cells" in swept.err
        reported = self._run(["experiment", "report", "toy-cli",
                              "--set", "x=2", "--json"],
                             tmp_path, capsys)
        assert json.loads(reported.out) == [{"x": 2, "seed": 3}]

    def test_report_miss_exits(self, toy, tmp_path, capsys):
        with pytest.raises(SystemExit, match="no cached result"):
            self._run(["experiment", "report", "toy-cli",
                       "--set", "x=9"], tmp_path, capsys)


#: The figures that used to be bespoke CLI verbs with a second copy in
#: their bench scripts, with overrides that keep the test short.
FIGURE_SPECS = {
    "fig03-walk-cycles": {"instructions": 20_000},
    "fig13-unavailable": {},
    "s53-interference": {},
    "s53-hwcost": {},
    "ablation-autotune": {"trials": 2},
}


class TestFigureSpecs:
    @pytest.mark.parametrize("name", sorted(FIGURE_SPECS))
    def test_one_path_cached_json_and_pure_report(self, name, tmp_path,
                                                  capsys):
        from repro.cli import main

        overrides = FIGURE_SPECS[name]
        argv = ["experiment", "run", name, "--cache-dir", str(tmp_path)]
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value}"]

        main(argv)
        fresh = capsys.readouterr()
        main(argv)
        again = capsys.readouterr()
        assert "[computed]" in fresh.err and "[cache hit]" in again.err
        assert again.out == fresh.out

        main(argv + ["--json"])
        rows = json.loads(capsys.readouterr().out)
        cache = ResultCache(str(tmp_path))
        hit = run_experiment(name, overrides=overrides, cache=cache)
        loaded = load_cached(name, overrides=overrides, cache=cache)
        assert hit.cached and hit.rows == loaded.rows == rows
        assert canonical_json(hit.rows) == canonical_json(rows)
        # The report is a function of the rows alone: fresh, cached and
        # cache-only renderings are the same bytes.
        assert hit.report() + "\n" == loaded.report() + "\n" == fresh.out
        assert hit.spec.postprocess(rows, hit.config) == hit.report()

    def test_seed_policy_and_defaults_are_the_bench_constants(self):
        pinned = {name: (get_spec(name).seed, dict(get_spec(name).defaults))
                  for name in FIGURE_SPECS}
        assert pinned == {
            "fig03-walk-cycles": (3, {"instructions": 150_000}),
            "fig13-unavailable": (0, {}),
            "s53-interference": (0, {}),
            "s53-hwcost": (0, {}),
            "ablation-autotune": (5, {"trials": 24}),
        }
