"""Public API surface snapshots, and that removed shims stay removed.

The exported-symbol sets below are the stable surface documented in
docs/API.md.  Changing them is allowed — but it must be a deliberate
act: update the snapshot here *and* docs/API.md in the same change.
Accidental exports (a helper leaking into ``import *``) and accidental
breakage (a public name vanishing in a refactor) both fail this file.
"""

import ast
import inspect
import pathlib
import sys
from importlib import import_module

import pytest

import repro
import repro.analysis
import repro.experiments
import repro.fleet
import repro.scenarios
import repro.telemetry
import repro.workloads
from repro.errors import ConfigurationError
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.server import ServerConfig
from repro.units import MiB

from conftest import fresh_python

SMALL = ServerConfig(mem_bytes=MiB(64), min_uptime_steps=20,
                     max_uptime_steps=40)


class TestExportSnapshots:
    def test_repro_all(self):
        assert sorted(repro.__all__) == [
            "AccessMode",
            "AllocSource",
            "ConfigurationError",
            "ContiguitasConfig",
            "ContiguitasKernel",
            "ContiguityError",
            "HardwareProtocolError",
            "HwMigrationEngine",
            "KernelConfig",
            "LinuxKernel",
            "MigrateType",
            "MigrationError",
            "OutOfMemoryError",
            "PageHandle",
            "PlacementPolicy",
            "RegionLayout",
            "RegionResizer",
            "ReproError",
            "ResizeConfig",
            "Workload",
            "WorkloadSpec",
            "__version__",
        ]

    def test_fleet_all(self):
        assert sorted(repro.fleet.__all__) == [
            "FLEET_SERVICES",
            "FleetConfig",
            "FleetSample",
            "FleetSummary",
            "ServerConfig",
            "ServerScan",
            "SimulatedServer",
            "WorkerOutcome",
            "check_survey_fit",
            "estimate_survey_bytes",
            "iter_fleet_scans",
            "median",
            "pearson",
            "percentile",
            "resolve_workers",
            "run_fleet",
            "survey_fleet",
        ]

    def test_analysis_all(self):
        assert sorted(repro.analysis.__all__) == [
            "Finding",
            "FrameSanitizer",
            "MemorySnapshot",
            "MetadataTableCost",
            "SCAN_GRANULARITIES",
            "SramCostModel",
            "contiguity_report",
            "debug_vm_enabled",
            "format_table",
            "free_block_count",
            "free_contiguity",
            "lint_paths",
            "load_snapshot",
            "migrations_per_second_capacity",
            "movable_potential",
            "save_snapshot",
            "unmovable_block_fraction",
            "unmovable_region_internal_frag",
            "unmovable_report",
            "verify_allocator",
            "verify_kernel",
        ]

    def test_experiments_all(self):
        assert sorted(repro.experiments.__all__) == [
            "Band",
            "CACHE_ENV",
            "CACHE_SCHEMA",
            "Claim",
            "ExperimentContext",
            "ExperimentResult",
            "ExperimentSpec",
            "Ordered",
            "ResultCache",
            "Verdict",
            "all_specs",
            "canonical_json",
            "default_cache_dir",
            "get_spec",
            "load_cached",
            "register",
            "result_key",
            "run_experiment",
            "verify_claims",
        ]

    def test_scenarios_all(self):
        assert sorted(repro.scenarios.__all__) == [
            "Scenario",
            "ScenarioConfig",
            "ScenarioMatrix",
            "ScenarioResult",
            "get_scenario",
            "library_dir",
            "list_scenarios",
            "load_matrix",
            "load_scenario",
            "render_html",
            "render_markdown",
            "run_scenario",
            "scenario_from_dict",
        ]

    def test_workloads_all(self):
        assert sorted(repro.workloads.__all__) == [
            "LatencyRecorder",
            "LoadgenConfig",
            "LoadgenResult",
            "LoopResult",
            "MEMCACHED",
            "MigrationSchedule",
            "NGINX",
            "PRODUCTION_SERVICES",
            "REGULAR_RATE",
            "RequestLoop",
            "ServerApp",
            "TraceShape",
            "VERY_HIGH_RATE",
            "WALK_CHARACTERISATION",
            "Workload",
            "WorkloadConfig",
            "WorkloadResult",
            "WorkloadSpec",
            "canonical_service_name",
            "fragment_fully",
            "fragment_partially",
            "get_service",
            "get_shape",
            "interference_overhead",
            "migration_window_cycles",
            "register_service",
            "register_shape",
            "relative_throughput_simulated",
            "run_loadgen",
            "run_workload",
            "sample_arrivals",
            "sample_service",
        ]

    def test_telemetry_all(self):
        """``TelemetryConfig`` is gone: tracing a run is scoping it with
        ``tracing``, and every run result carries a manifest."""
        assert sorted(repro.telemetry.__all__) == [
            "CounterSet",
            "Gauge",
            "Histogram",
            "JsonlSink",
            "MetricsRegistry",
            "RingBufferSink",
            "TRACEPOINTS",
            "TraceEvent",
            "Tracepoint",
            "TracepointRegistry",
            "build_manifest",
            "format_manifest",
            "format_manifest_diff",
            "load_manifest",
            "manifest_diff",
            "read_jsonl",
            "set_sim_clock",
            "tracepoint",
            "tracing",
            "write_manifest",
        ]

    def test_all_names_actually_exported(self):
        for mod in (repro, repro.fleet, repro.experiments, repro.workloads,
                    repro.scenarios, repro.telemetry):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"

    def test_lint_rule_ids_pinned(self):
        # The analysis rule set is surface too: CI gates, inline
        # suppressions and SARIF consumers key on these IDs.  Adding or removing a
        # rule must update this snapshot, docs/ANALYSIS.md, and the
        # fixture coverage in tests/test_deeplint.py together.
        from repro.analysis.simlint import rule_catalogue

        assert [code for code, _, _ in rule_catalogue(deep=True)] == [
            "SL000",
            "SL001",
            "SL002",
            "SL003",
            "SL004",
            "SL005",
            "SL006",
            "SL008",
            "SL009",
            "SL010",
            "DL101",
            "DL102",
            "DL103",
            "DL104",
            "DL105",
        ]

    def test_simlint_all(self):
        from repro.analysis import simlint

        assert sorted(simlint.__all__) == [
            "DeepLintError",
            "Finding",
            "RULES",
            "Rule",
            "find_contract_root",
            "lint_paths",
            "render_json",
            "render_sarif",
            "render_text",
            "rule_catalogue",
        ]


class TestFrontDoor:
    def test_run_fleet_takes_config_returns_sample(self):
        sample = run_fleet(FleetConfig(n_servers=2, server=SMALL,
                                       base_seed=4, workers=1))
        assert len(sample.scans) == 2

    def test_run_fleet_config_rejects_stray_kwargs(self):
        """The removed pre-redesign spellings (engine kwargs, a
        positional server count) fail loudly instead of half-working."""
        with pytest.raises(TypeError, match="workers"):
            run_fleet(FleetConfig(n_servers=1, server=SMALL), workers=1)
        with pytest.raises(ConfigurationError, match="FleetConfig"):
            run_fleet(2)

    def test_fleet_config_is_frozen_and_validated(self):
        cfg = FleetConfig(n_servers=2, server=SMALL)
        with pytest.raises(Exception):
            cfg.n_servers = 5
        with pytest.raises(ConfigurationError):
            FleetConfig(n_servers=-1)
        with pytest.raises(ConfigurationError):
            FleetConfig(n_servers=1, workers=-2)

    @pytest.mark.parametrize("low,high", [(10, 5), (-10, -5), (-1, 0)])
    def test_server_config_refuses_a_bad_uptime_range(self, low, high):
        """An inverted range used to spend every server's retry budget
        on ``randrange`` and cache ``failed`` rows; a negative one cached
        negative uptimes."""
        with pytest.raises(ConfigurationError,
                           match=f"got {low} and {high}$"):
            ServerConfig(min_uptime_steps=low, max_uptime_steps=high)
        ServerConfig(min_uptime_steps=0, max_uptime_steps=0)

    def test_inverted_uptime_range_is_one_repro_line(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["experiment", "run", "fleet-survey", "--set",
                  "n_servers=3", "--set", "min_uptime_steps=10", "--set",
                  "max_uptime_steps=5", "--workers", "1", "--cache-dir",
                  str(tmp_path)])
        assert str(exc.value.code) == (
            "repro: uptime range needs 0 <= min_uptime_steps <= "
            "max_uptime_steps, got 10 and 5")


class TestWorkloadFrontDoor:
    def test_get_service_kebab_and_alias(self):
        from repro.workloads import canonical_service_name, get_service

        assert get_service("cache-b").name == "CacheB"
        # CamelCase spec names resolve as aliases of the kebab registry.
        assert get_service("CacheB") is get_service("cache-b")
        assert canonical_service_name("CacheB") == "cache-b"

    def test_get_service_unknown_lists_known(self):
        from repro.workloads import get_service

        with pytest.raises(ConfigurationError, match="cache-b"):
            get_service("no-such-service")

    def test_workload_config_frozen_and_validated(self):
        from repro.workloads import WorkloadConfig

        cfg = WorkloadConfig(service="web")
        with pytest.raises(Exception):
            cfg.steps = 5
        with pytest.raises(ConfigurationError):
            WorkloadConfig(service="web", steps=-1)
        with pytest.raises(ConfigurationError):
            WorkloadConfig(service="web", kernel="plan9")
        with pytest.raises(ConfigurationError):
            WorkloadConfig(service="web", mem_bytes=MiB(1))

    def test_run_workload_returns_snapshotable_result(self):
        from repro.workloads import WorkloadConfig, run_workload

        result = run_workload(WorkloadConfig(
            service="cache-b", mem_bytes=MiB(64), steps=30, seed=5))
        snap = result.snapshot()
        assert snap["service"] == "cache-b"
        assert snap["steps"] == 30
        assert 0.0 <= snap["huge_coverage"]["2m"] <= 1.0
        assert "latency" not in snap  # a workload run has no burst


#: The fields of the seven configs on the paths users run (for
#: ``ContiguitasConfig`` its own, beside the ``KernelConfig`` ones it
#: inherits).  Every one is set by a caller outside ``tests/``
#: (:class:`TestConfigFields` checks it); a calibration is a module
#: constant, not a field (docs/API.md, "Removed surface").
CONFIG_FIELDS = {
    "repro.fleet:FleetConfig": [
        "n_servers", "server", "base_seed", "workers"],
    "repro.fleet:ServerConfig": [
        "mem_bytes", "kernel_cls", "min_uptime_steps", "max_uptime_steps",
        "fault_plan"],
    "repro.workloads:WorkloadConfig": [
        "service", "kernel", "mem_bytes", "steps", "seed"],
    "repro.workloads:LoadgenConfig": [
        "shape", "rate_rps", "duration_s", "app", "design",
        "migrations_per_second", "buffer_pages", "seed"],
    "repro.mm:KernelConfig": [
        "mem_bytes", "pcp_enabled", "debug_vm"],
    "repro.core:ContiguitasConfig": [
        "initial_unmovable_fraction", "resize", "placement", "hw_enabled"],
    "repro.kalloc.netbuf:NetworkQueueConfig": [
        "nr_queues", "ring_frames_per_queue"],
}

#: Pinned fields no call outside ``tests/`` sets that stay on purpose,
#: one reason each.
UNSET_ALLOWED = {
    "repro.mm:KernelConfig.debug_vm":
        "safety code: REPRO_DEBUG_VM sets it to attach the frame sanitizer",
}


def _config_class(path: str):
    module, name = path.split(":")
    return getattr(import_module(module), name)


def _unset_fields() -> list[str]:
    """``module:Class.field`` for each pinned field that no call in
    ``src/``, ``benchmarks/`` or ``examples/`` sets: by a keyword of its
    name in any call (matched by name, as :class:`TestParameterAudit`
    matches, so ``replace(...)`` and ``**config`` forwarders count) or
    by enough positional arguments in a call to its class."""
    import dataclasses

    sites = _call_sites(("src", "benchmarks", "examples"))
    keywords = {kw for calls in sites.values() for _, kws, _, _ in calls
                for kw in kws}
    found = []
    for path, names in CONFIG_FIELDS.items():
        cls = _config_class(path)
        order = [f.name for f in dataclasses.fields(cls)]
        for name in names:
            need = order.index(name) + 1
            if name in keywords or any(
                    n >= need for n, _, _, _ in sites.get(cls.__name__, ())):
                continue
            found.append(f"{path}.{name}")
    return found


class TestConfigFields:
    @pytest.mark.parametrize("path", sorted(CONFIG_FIELDS))
    def test_fields_pinned(self, path):
        """In declaration order: ``benchmarks/e2e`` builds a
        ``WorkloadConfig`` positionally."""
        import dataclasses

        cls = _config_class(path)
        inherited = {f.name for base in cls.__mro__[1:]
                     if dataclasses.is_dataclass(base)
                     for f in dataclasses.fields(base)}
        assert [f.name for f in dataclasses.fields(cls)
                if f.name not in inherited] == CONFIG_FIELDS[path]

    def test_thirty_one_fields(self):
        assert sum(map(len, CONFIG_FIELDS.values())) == 31

    def test_every_pinned_field_is_set_outside_tests(self):
        """A field only tests set is an option nothing uses: make it a
        module constant, or delete it with its branch."""
        found = _unset_fields()
        stale = sorted(set(UNSET_ALLOWED) - set(found))
        assert not stale, f"allowlisted but set now: {stale}"
        assert [f for f in found if f not in UNSET_ALLOWED] == []


class TestRemovedShims:
    """Names that were once shimmed (docs/API.md, "Removal policy")
    are gone outright: using one is an ``AttributeError``/``TypeError``
    at the call site, not a warning."""

    @pytest.mark.parametrize("name", ["WEB", "CACHE_A", "CACHE_B", "CI",
                                      "ADS", "RDMA", "BY_NAME"])
    def test_workloads_service_constants_are_gone(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(repro.workloads, name)
        assert name not in dir(repro.workloads)

    def test_service_registry_is_the_replacement(self):
        from repro.workloads import get_service, services

        assert get_service("rdma") is services.RDMA
        assert get_service("CacheB") is get_service("cache-b")
        assert not hasattr(services, "BY_NAME")
        for name in ("web", "cache-a", "cache-b", "ci", "ads", "rdma"):
            assert get_service(name).name

    def test_yamlite_is_gone(self):
        """Matrices are JSON read by the stdlib: no parser module, no
        error type of its own (parse failures are the
        ``ConfigurationError`` its callers already caught)."""
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module("repro.scenarios.yamlite")
        for name in ("yamlite", "YamliteError"):
            assert not hasattr(repro.scenarios, name)


LAZY_PACKAGES = ("repro", "repro.analysis", "repro.core", "repro.core.hwext",
                 "repro.scenarios", "repro.sim", "repro.workloads")


class TestLazyExports:
    """The packages whose re-exports resolve on first access
    (docs/INTERNALS.md, "Import tiers"); ``repro.scenarios`` only its
    HTML renderer."""

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_is_its_home_modules_object(self, package):
        pkg = import_module(package)
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert getattr(import_module(obj.__module__), name) is obj
                # Defined under the package; ``repro.sim`` re-exports
                # TraceSpec, a leaf record of ``repro.workloads``.
                if (package, name) != ("repro.sim", "TraceSpec"):
                    assert obj.__module__.startswith(package + ".")
            elif name != "__version__":
                # A constant: some plain module below the package
                # defines this very object.
                homes = [m for key, m in list(sys.modules.items())
                         if key.startswith(package + ".")
                         and not hasattr(m, "__path__")
                         and m.__dict__.get(name) is obj]
                assert homes, f"{package}.{name} has no home module"
            # ...and the lookup cached it as a plain global.
            assert pkg.__dict__[name] is obj

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_dir_and_star_import_in_a_fresh_interpreter(self, package):
        done = fresh_python(
            f"import sys, {package} as pkg\n"
            "assert set(pkg.__all__) <= set(dir(pkg)), 'dir'\n"
            "assert 'numpy' not in sys.modules, 'dir() resolved exports'\n"
            f"from {package} import *\n"
            "missing = [n for n in pkg.__all__ if n not in globals()]\n"
            "assert not missing, missing\n")
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_attribute_names_the_module(self, package):
        pkg = import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            pkg.no_such_export
        assert not hasattr(pkg, "no_such_export")
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_export")

    def test_attribute_set_before_first_access_wins(self):
        """The benchmark's taps and tests patch package attributes; a
        value somebody set must never be replaced by the lazy lookup,
        nor make it import the home module."""
        for package in LAZY_PACKAGES:
            done = fresh_python(
                f"import sys, {package} as pkg\n"
                "name = next(n for n in pkg.__all__ if n not in vars(pkg))\n"
                "loaded = set(sys.modules)\n"
                "tap = object()\n"
                "setattr(pkg, name, tap)\n"
                "assert getattr(pkg, name) is tap\n"
                f"exec(f'from {package} import {{name}} as got')\n"
                "assert got is tap\n"
                "assert set(sys.modules) == loaded, set(sys.modules) - loaded\n"
                "delattr(pkg, name)\n"
                "real = getattr(pkg, name)\n"
                "assert real is not tap and vars(pkg)[name] is real\n")
            assert done.returncode == 0, (package, done.stderr)

    def test_patch_and_restore_after_first_access(self):
        original = repro.workloads.sample_service
        repro.workloads.sample_service = wrapper = object()
        try:
            assert repro.workloads.sample_service is wrapper
        finally:
            repro.workloads.sample_service = original
        assert repro.workloads.sample_service is original

    def test_submodules_import_through_the_lazy_package(self):
        from repro.analysis import simlint
        from repro.workloads import tracegen

        assert tracegen.run_loadgen is repro.workloads.run_loadgen
        assert simlint.__name__ == "repro.analysis.simlint"

    def test_registry_is_populated_whichever_module_loads_first(self):
        for first in ("repro.workloads.registry", "repro.workloads.services",
                      "repro.workloads.config"):
            done = fresh_python(
                f"import {first}\n"
                "from repro.workloads.registry import get_service\n"
                "assert get_service('web').name == 'Web'\n")
            assert done.returncode == 0, (first, done.stderr)


class TestScenarioFrontDoor:
    def test_scenario_config_frozen_and_validated(self):
        from repro.scenarios import ScenarioConfig

        cfg = ScenarioConfig(scenario="fragmentation-aging", smoke=True)
        with pytest.raises(Exception):
            cfg.smoke = False
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario=42)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="x", workers=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="x", checkpoint_every=-1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="x", cells=("ok", ""))
        with pytest.raises(ConfigurationError):
            ScenarioConfig(scenario="x", select={"axis": 3})
        # By type: each used to be accepted (``smoke="no"`` ran the
        # smoke variant) or to fail as a bare ``TypeError``.
        for field, value in (("workers", True), ("workers", "2"),
                             ("checkpoint_every", True), ("smoke", "no"),
                             ("force", "yes")):
            with pytest.raises(ConfigurationError,
                               match=f"^{field} must be .*, got {value!r}$"):
                ScenarioConfig("uce-degrade", **{field: value})

    def test_run_scenario_takes_config_returns_result(self, tmp_path):
        from repro.experiments import ResultCache
        from repro.scenarios import ScenarioConfig, run_scenario

        cache = ResultCache(str(tmp_path / "cache"))
        result = run_scenario(
            ScenarioConfig(scenario="fragmentation-aging", smoke=True,
                           workers=1),
            cache=cache)
        assert len(result.cells) == 1
        assert result.report().startswith("# Scenario: fragmentation-aging")


class TestGridDeprecationShim:
    """``ExperimentSpec(grid={...})`` (a deprecation shim) is gone, and
    so is its ``axes=`` successor: a grid is a scenario matrix
    (``repro scenario run --matrix``)."""

    def _spec(self, **kwargs):
        from repro.experiments import ExperimentSpec

        return ExperimentSpec(
            name="grid-shim-probe", description="probe",
            producer=lambda ctx: [],
            defaults={"steps": 10, "service": "web"}, **kwargs)

    def test_grid_keyword_is_gone(self):
        with pytest.raises(TypeError, match="grid"):
            self._spec(grid={"steps": (10, 20)})

    def test_axes_keyword_is_gone(self):
        with pytest.raises(TypeError, match="axes"):
            self._spec(axes=())


class TestRemovedSurface:
    """Names no figure, front door or example reached (docs/API.md,
    "Removed surface"): each is gone, not deprecated."""

    @pytest.mark.parametrize("module, name", [
        ("repro", "IlluminatorKernel"),
        ("repro.core", "IlluminatorKernel"),
        ("repro.core", "StrictPageblockBuddy"),
        ("repro.workloads", "TraceEvent"),
        ("repro.workloads", "TraceRecorder"),
        ("repro.workloads", "load_trace"),
        ("repro.workloads", "replay"),
        ("repro.workloads", "relative_throughput"),
        ("repro.workloads", "list_services"),
        ("repro.workloads", "list_shapes"),
        ("repro.experiments", "axes_from_grid"),
        ("repro.experiments", "Axis"),
        ("repro.experiments", "AxisValue"),
        ("repro.experiments", "Cell"),
        ("repro.experiments", "expand_axes"),
        ("repro.experiments", "value_id"),
        ("repro.scenarios", "Smoke"),
        ("repro.experiments", "unregister"),
        ("repro.analysis", "lint_source"),
        ("repro.analysis.simlint", "lint_source"),
    ])
    def test_name_is_gone(self, module, name):
        assert not hasattr(import_module(module), name)

    @pytest.mark.parametrize("module", ["repro.core.illuminator",
                                        "repro.workloads.tracelog",
                                        "repro.experiments.grid"])
    def test_module_is_gone(self, module):
        with pytest.raises(ImportError):
            import_module(module)


REPO = pathlib.Path(__file__).resolve().parent.parent

#: Keyword parameters no call site passes that stay on purpose, one
#: reason each.  Everything else such a parameter would vary is a value
#: nothing sets: a module constant, or the branch that works it out.
UNPASSED_ALLOWED = {
    "repro/analysis/sanitizer.py FrameSanitizer.note_free(tick)":
        "safety code: the sanitizer records the free tick for reports",
}


def _callees(func) -> list[str]:
    """The names a call of *func* reaches: the bare name or attribute
    called (as DL105 matches)."""
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    return [] if name is None else [name]


def _call_sites(tops=("src", "tests", "benchmarks", "examples")
                ) -> dict[str, list[tuple[int, set, bool, bool]]]:
    """Every call in the code under the *tops* directories, keyed by
    callee name (:func:`_callees`): (positional count, keywords, ``*``
    splat, ``**`` splat)."""
    sites: dict[str, list] = {}
    for top in tops:
        for path in sorted((REPO / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                for name in _callees(node.func):
                    sites.setdefault(name, []).append((
                        len(node.args),
                        {k.arg for k in node.keywords if k.arg},
                        any(isinstance(a, ast.Starred) for a in node.args),
                        any(k.arg is None for k in node.keywords)))
    return sites


def _unpassed_parameters() -> list[str]:
    """``path Qualname(param)`` for each defaulted parameter of a
    function under ``src/repro`` that no call site passes."""
    sites = _call_sites()
    found = []

    def visit(node, path, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                visit(child, path, cls)
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            # A call through an instance binds self: one fewer argument.
            bound = cls is not None and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in child.decorator_list)
            names = [child.name] + ([cls] if child.name == "__init__"
                                    else [])
            calls = [c for n in names for c in sites.get(n, ())]
            first = len(positional) - len(args.defaults)
            params = [(i, p.arg) for i, p in enumerate(positional)
                      if i >= first]
            params += [(None, p.arg) for p, default in
                       zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            for index, param in params:
                need = None if index is None else index + (not bound)
                if not any(param in kws or dstar
                           or (need is not None and (star or n >= need))
                           for n, kws, star, dstar in calls):
                    owner = f"{cls}." if cls else ""
                    found.append(f"{path} {owner}{child.name}({param})")
            visit(child, path, None)

    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(REPO / "src").as_posix()
        visit(ast.parse(path.read_text("utf-8")), rel, None)
    return found


class TestParameterAudit:
    """A keyword parameter is an option: one that no caller in
    ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` passes is a
    value nothing sets (docs/API.md, "Removed surface")."""

    def test_every_keyword_parameter_is_passed_somewhere(self):
        found = _unpassed_parameters()
        stale = sorted(set(UNPASSED_ALLOWED) - set(found))
        assert not stale, f"allowlisted but passed now: {stale}"
        assert [p for p in found if p not in UNPASSED_ALLOWED] == []

    def test_the_kernel_entry_gap_is_one_constant(self):
        """§5.3's ~25 µs kernel-entry window: the lazy-invalidation
        simulation, the noncacheable window and the table's capacity
        all read ``KERNEL_ENTRY_GAP_CYCLES``, and none types its own."""
        from repro.analysis.hwcost import (MIGRATION_COPY_US,
                                           migrations_per_second_capacity)
        from repro.sim.params import DEFAULT_PARAMS, KERNEL_ENTRY_GAP_CYCLES
        from repro.sim.shootdown import (page_copy_cycles,
                                         simulate_contiguitas_migration)
        from repro.workloads.interference import migration_window_cycles

        for rel in ("sim/shootdown.py", "workloads/interference.py",
                    "analysis/hwcost.py"):
            tree = ast.parse((REPO / "src" / "repro" / rel).read_text())
            names = {n.id for n in ast.walk(tree)
                     if isinstance(n, ast.Name)}
            literals = {n.value for n in ast.walk(tree)
                        if isinstance(n, ast.Constant)}
            assert "KERNEL_ENTRY_GAP_CYCLES" in names, rel
            assert not literals & {50_000, 25.0}, rel
        gap = KERNEL_ENTRY_GAP_CYCLES
        copy = page_copy_cycles(DEFAULT_PARAMS)
        assert migration_window_cycles(DEFAULT_PARAMS) == copy + gap
        assert simulate_contiguitas_migration(DEFAULT_PARAMS, 7).end == \
            max(gap, copy + DEFAULT_PARAMS.hw_table_latency
                * DEFAULT_PARAMS.lines_per_page)
        hold_us = DEFAULT_PARAMS.cycles_to_us(gap) + MIGRATION_COPY_US
        assert migrations_per_second_capacity(1) == 1_000_000.0 / hold_us
