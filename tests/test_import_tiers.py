"""The import-tier boundary (docs/INTERNALS.md, "Import tiers").

The cold tier — ``repro``, ``repro.cli`` and every cache-only or
metadata verb — must never import numpy or the simulator.  Each case
runs in a fresh interpreter and inspects ``sys.modules`` afterwards; a
timing assertion would flake, a module list cannot.
"""

import json

import pytest

import repro.units
from conftest import fresh_python
from repro.experiments import ResultCache, get_spec, result_key
from repro.experiments.spec import FAMILIES
from repro.telemetry.manifest import git_rev

#: What the hot tier looks like from ``sys.modules``.
HOT = ("numpy", "repro.mm", "repro.core", "repro.kalloc", "repro.sim",
       "repro.fleet", "repro.workloads.base")

#: What a warm ``scenario run`` never needs: the manifest's host facts,
#: the HTML renderer, ``dataclasses`` (its records are named tuples and
#: plain classes) and the ``inspect`` it imports, the fault injector,
#: the tool verbs, the other verbs' handlers, the claim verifier, a
#: producer's context, and telemetry's sinks, instruments and manifest
#: code.
NOT_WARM = ("subprocess", "platform", "html", "repro.scenarios.htmlreport",
            "dataclasses", "inspect", "repro.faults.injector",
            "repro.checkpoint", "repro.analysis.simlint", "repro.tools",
            "repro.verbs", "repro.analysis.reporting",
            "repro.experiments.verify", "repro.experiments.context",
            "repro.telemetry.sinks", "repro.telemetry.instruments",
            "repro.telemetry.manifest")

#: What those modules define, wherever it lived: no module a warm
#: ``scenario run`` loads defines any of it.
NOT_WARM_NAMES = ("Verdict", "verify_claims", "ExperimentContext",
                  "TraceEvent", "RingBufferSink", "JsonlSink", "read_jsonl",
                  "Gauge", "Histogram", "build_manifest", "write_manifest",
                  "load_manifest", "manifest_diff", "format_table",
                  "render_html")

PROBE = """
import json, sys
{body}
hot = [h for h in {hot!r}
       if any(m == h or m.startswith(h + ".") for m in sys.modules)]
print("\\nHOT=" + json.dumps(hot))
"""


def run_probe(body: str, env: dict | None = None,
              watch: tuple[str, ...] = HOT) -> list[str]:
    """Run *body* in a fresh interpreter; the modules of *watch* (the
    hot tier by default) it loaded."""
    done = fresh_python(PROBE.format(body=body, hot=watch), env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.rsplit("HOT=", 1)[1])


def main_body(*argv: str) -> str:
    """``repro.cli.main(argv)``, tolerating the clean SystemExit of
    ``--help``."""
    return ("from repro.cli import main\n"
            "try:\n"
            f"    main({list(argv)!r})\n"
            "except SystemExit as exc:\n"
            "    assert exc.code in (None, 0), exc.code\n")


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A populated result cache, a manifest and a checkpoint directory
    for the cache-only verbs to read (made once, with the hot tier)."""
    root = tmp_path_factory.mktemp("tiers")
    cache = root / "cache"
    manifest = root / "scenario.json"
    ckpt = root / "ckpt"
    # Fig. 11's one dependency is the 1 GiB steady-state profile: stand-in
    # rows in its cell keep warming the figure cheap.
    profile = get_spec("steady-profile")
    ResultCache(str(cache)).put(
        result_key(profile.name, profile.version, profile.resolve(),
                   profile.seed),
        [{"service": "CI", "kernel": kernel, "unmovable_2m": 0.5}
         for kernel in ("linux", "contiguitas")],
        spec_name=profile.name, version=profile.version,
        config=profile.resolve(), seed=profile.seed)
    for argv in (
            ["scenario", "run", "steady-web", "--smoke",
             "--manifest", str(manifest)],
            ["scenario", "run", "uce-degrade", "--smoke", "--workers", "1"],
            ["experiment", "run", "workload-steady", "--set", "mem_mib=16",
             "--set", "steps=2", "--resume-from", str(ckpt)],
            ["experiment", "run", "s53-hwcost"],
            ["experiment", "run", "fig11-unmovable"]):
        done = fresh_python(main_body(*argv),
                            {"REPRO_EXPERIMENT_CACHE": str(cache)})
        assert done.returncode == 0, done.stderr
    return {"cache": str(cache), "manifest": str(manifest),
            "ckpt": str(ckpt)}


CASES = {
    "import-repro": lambda warm: "import repro",
    "import-cli": lambda warm: "import repro.cli",
    "build-parser": lambda warm: (
        "from repro.cli import build_parser\nbuild_parser()"),
    "scenario-run-warm": lambda warm: main_body(
        "scenario", "run", "steady-web", "--smoke"),
    "scenario-list": lambda warm: main_body("scenario", "list"),
    "experiment-list": lambda warm: main_body("experiment", "list"),
    "experiment-run-warm": lambda warm: main_body(
        "experiment", "run", "s53-hwcost"),
    "experiment-run-fig11-warm": lambda warm: main_body(
        "experiment", "run", "fig11-unmovable"),
    "metrics": lambda warm: main_body("metrics", warm["manifest"]),
    "checkpoint-inspect": lambda warm: main_body(
        "checkpoint", "inspect", warm["ckpt"]),
    "lint-file": lambda warm: main_body("lint", repro.units.__file__),
    "help": lambda warm: main_body("--help"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_tier_loads_nothing_hot(case, warm):
    """(A ``scenario run`` that missed the cache would simulate, and so
    fail here too: the case proves it was warm as well as cold-tier.)"""
    loaded = run_probe(CASES[case](warm),
                       env={"REPRO_EXPERIMENT_CACHE": warm["cache"]})
    assert loaded == [], f"{case} pulled in the hot tier: {loaded}"


def test_probe_sees_the_hot_tier_when_it_loads():
    """The guard itself: a verb that simulates does load numpy and mm,
    so an empty list above means something."""
    loaded = run_probe("import repro\nrepro.LinuxKernel")
    assert "numpy" in loaded and "repro.mm" in loaded



#: What the simulation tier never needs: the allocator, its kernels,
#: the fleet, the workload driver, numpy, and the parts of ``core`` and
#: ``sim`` that only the OS model or Fig. 13's device TLBs use.
SIM_HOT = ("numpy", "repro.mm", "repro.kalloc", "repro.fleet",
           "repro.workloads.base", "repro.core.kernel",
           "repro.core.autotune", "repro.core.hwext.engine",
           "repro.sim.iommu")

SIM_CASES = {
    "loadgen-burst": (
        "from repro.workloads import LoadgenConfig, run_loadgen\n"
        "run_loadgen(LoadgenConfig(duration_s=2e-4))"),
    "tail-latency-cold": main_body(
        "experiment", "run", "tail-latency-interference",
        "--set", "duration_ms=0.2"),
    "s53-hwcost-cold": main_body("experiment", "run", "s53-hwcost"),
    "import-packages": "import repro.core, repro.core.hwext, repro.sim",
}


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_simulation_tier_loads_no_allocator(case, tmp_path):
    """The §5.3 latency study runs ``sim``, ``requestloop`` and
    ``tracegen`` only; computing it (a fresh cache) or importing the
    packages it reaches through loads nothing of the OS model."""
    loaded = run_probe(SIM_CASES[case],
                       env={"REPRO_EXPERIMENT_CACHE": str(tmp_path)},
                       watch=SIM_HOT)
    assert loaded == [], f"{case} pulled in the allocator tier: {loaded}"


def test_fleet_import_loads_no_simulator_or_load_generator():
    """A fleet server boots a kernel, churns a workload and scans it;
    nothing on that path needs the hardware simulator or the open-loop
    load generator, so importing the fleet loads neither."""
    done = fresh_python(
        "import sys, repro.fleet\n"
        "print(sorted(m for m in sys.modules if m == 'repro.sim'\n"
        "             or m.startswith(('repro.sim.',\n"
        "                              'repro.workloads.tracegen'))))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_server_run_imports_nothing_the_fleet_parent_lacks():
    """A forked survey worker runs servers the parent never ran: any
    module a server imports on first use would be compiled once per
    worker, inside the timed survey."""
    done = fresh_python(
        "import sys, repro.fleet\n"
        "from repro.units import MiB\n"
        "loaded = set(sys.modules)\n"
        "repro.fleet.SimulatedServer(\n"
        "    repro.fleet.ServerConfig(mem_bytes=MiB(64)), seed=3).run()\n"
        "print(sorted(m for m in set(sys.modules) - loaded\n"
        "             if m.startswith('repro')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_warm_scenario_run_loads_one_family_and_no_tool(warm):
    """A warm ``scenario run`` compiles its one spec family, and neither
    forks ``git`` for a manifest nobody reads nor loads a tool verb."""
    loaded = run_probe(
        main_body("scenario", "run", "uce-degrade", "--smoke"),
        env={"REPRO_EXPERIMENT_CACHE": warm["cache"]},
        watch=(*FAMILIES, *NOT_WARM))
    assert loaded == ["repro.experiments.survey"]


def test_warm_scenario_run_defines_nothing_it_never_calls(warm):
    """Checked by name in every loaded ``repro`` module's globals, so a
    class or function moved back onto the warm path under another
    module name is caught too (and the lazy tables resolve nothing)."""
    done = fresh_python(
        main_body("scenario", "run", "uce-degrade", "--smoke")
        + "import json, sys\n"
        f"names = set({NOT_WARM_NAMES!r})\n"
        "print('\\nDEFINED=' + json.dumps(sorted(\n"
        "    f'{m}.{n}' for m, module in list(sys.modules.items())\n"
        "    if m.startswith('repro') for n in names & vars(module).keys())))",
        {"REPRO_EXPERIMENT_CACHE": warm["cache"]})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.rsplit("DEFINED=", 1)[1]) == []


@pytest.mark.parametrize("argv", [
    ("scenario", "list"),
    ("scenario", "show", "uce-degrade", "--smoke"),
], ids=["list", "show"])
def test_scenario_metadata_verbs_load_no_family(argv, warm):
    assert run_probe(main_body(*argv), watch=FAMILIES) == []


def test_manifest_file_still_carries_the_git_rev(warm, tmp_path):
    """``--manifest`` builds the manifest, host facts and all (the
    probe sees ``subprocess`` load, so its absence above means
    something)."""
    path = tmp_path / "m.json"
    loaded = run_probe(
        main_body("scenario", "run", "uce-degrade", "--smoke",
                  "--manifest", str(path)),
        env={"REPRO_EXPERIMENT_CACHE": warm["cache"]},
        watch=("subprocess", "platform"))
    assert loaded == ["subprocess", "platform"]
    manifest = json.loads(path.read_text())
    assert manifest["git_rev"] == git_rev()
    assert manifest["aggregates"]["cells_cached"] == 2
