"""Command-line interface: run the paper's experiments from a shell.

Every simulation is an experiment spec (``repro experiment list``), so
it is seeded by policy, cached, ``--json``-able and leaves a manifest;
``scenario`` runs matrices of specs, ``checkpoint`` inspects and
resumes killed runs, and the other verbs are tools.

Examples::

    python -m repro experiment list       # registered experiment specs
    python -m repro experiment run fig13-unavailable   # Fig. 13 curve
    python -m repro experiment run fig03-walk-cycles \\
        --set instructions=20000          # page-walk cycles, shorter run
    python -m repro experiment run workload-steady --set service=cache-b \\
        --set kernel=contiguitas          # steady-state fragmentation
    python -m repro experiment run s53-hwcost --json   # metadata table
    python -m repro experiment run fig04-contiguity-cdf --seed 7
    python -m repro experiment run fleet-survey --set n_servers=8 \\
        --json                            # mini fleet survey, per server
    python -m repro experiment run fleet-survey --plan ci-smoke \\
        --set n_servers=6                 # ... under injected faults
    python -m repro experiment run tail-latency-interference \\
        --set design=cacheable --resume-from ck/   # a resumable burst
    python -m repro experiment report fig06-sources --json
    python -m repro experiment verify fig13-unavailable  # its claims,
                                          # on three seeds
    python -m repro scenario list         # bundled scenario matrices
    python -m repro scenario show uce-degrade --smoke
    python -m repro scenario run fragmentation-aging --smoke
    python -m repro scenario run steady-web --set design=nc --html r.html
    python -m repro scenario report crash-restart-soak --smoke
    python -m repro checkpoint inspect ck/   # a killed run's generations
    python -m repro trace --match 'mm.buddy.*' --limit 20
    python -m repro trace --input ev.jsonl --match 'mm.compact.*'
    python -m repro metrics run.json      # pretty-print one manifest
    python -m repro metrics a.json b.json # diff two runs
    python -m repro lint src/repro/mm/buddy.py   # per-file rules only
    python -m repro lint --deep src/repro  # + whole-program rules
    python -m repro lint --deep --sarif out.sarif src/repro
    python -m repro lint --json --list-rules

Shared options (``--seed``, ``--workers``, ``--json``, ``--manifest``)
are declared once on parent parsers so every verb spells and validates
them identically.  The tool verbs (``lint``, ``trace``, ``metrics``,
``checkpoint``) live in :mod:`repro.tools`, named here by door strings.
"""

from __future__ import annotations

import argparse

from .analysis.reporting import format_table
from .errors import CheckpointError, ConfigurationError


def _resolve_plan(name: str | None):
    """A named fault plan, or None; unknown names are refused with the
    list."""
    if name is None:
        return None
    from .faults import NAMED_PLANS

    try:
        return NAMED_PLANS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown plan {name!r}; one of "
            f"{', '.join(sorted(NAMED_PLANS))}") from None


def _split_sets(pairs: list[str] | None) -> dict[str, str]:
    """``--set KEY=VALUE`` pairs as a dict, both sides still strings
    (what a scenario's axis pins are: ``--set rate_krps=1000`` pins
    value id ``"1000"``)."""
    split = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--set expects KEY=VALUE, got {pair!r}")
        split[key] = value
    return split


def _config_overrides(args) -> dict:
    """The experiment verbs' ``--set`` pairs as config overrides: each
    value a JSON scalar (``--set n_servers=12``, ``--set label='"x"'``),
    falling back to the plain string."""
    import json

    overrides = {}
    for key, raw in _split_sets(args.set).items():
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _experiment_cache(args):
    from .experiments import ResultCache

    return ResultCache(args.cache_dir) if args.cache_dir else ResultCache()


def write_manifest_arg(args, result, what: str) -> None:
    """``--manifest PATH``: write *result*'s manifest there and say so
    on stderr (*what* names the manifest's kind in that line)."""
    if args.manifest:
        import sys

        from .telemetry import write_manifest

        write_manifest(args.manifest, result.manifest)
        print(f"# {what} manifest written to {args.manifest}",
              file=sys.stderr)


def _print_experiment(result, as_json: bool) -> None:
    """Result rows/report to stdout; cache status to stderr — so two runs
    of the same cell produce byte-identical stdout whether they computed
    or hit the cache (the CI smoke job diffs exactly this)."""
    import json
    import sys

    status = "cache hit" if result.cached else "computed"
    print(f"# {result.spec.name} seed={result.seed} "
          f"key={result.key[:12]} [{status}]", file=sys.stderr)
    if as_json:
        print(json.dumps(result.rows, indent=2, sort_keys=True))
    else:
        print(result.report())


def _cmd_experiment_list(args) -> None:
    import json

    from .experiments import all_specs

    specs = all_specs()
    if args.json:
        print(json.dumps(
            [{"name": s.name, "description": s.description,
              "figure": s.figure, "seed": s.seed, "version": s.version,
              "defaults": dict(s.defaults)}
             for s in specs], indent=2, sort_keys=True))
        return
    print(format_table(
        ["Name", "Figure", "Seed", "Description"],
        [(s.name, s.figure or "-", str(s.seed), s.description)
         for s in specs],
        title="Registered experiments (repro experiment run <name>)"))


def _cmd_experiment_run(args) -> None:
    from .experiments import run_experiment

    # --resume-from alone implies per-unit checkpointing: the point of
    # naming a directory is continuing the killed cell from it.
    every = args.checkpoint_every or (1 if args.resume_from else 0)
    result = run_experiment(
        args.name, overrides=_config_overrides(args), seed=args.seed,
        workers=args.workers, plan=_resolve_plan(args.plan),
        cache=_experiment_cache(args), force=args.force,
        checkpoint_every=every, checkpoint_dir=args.resume_from)
    _print_experiment(result, args.json)
    write_manifest_arg(args, result, "run")


def _cmd_experiment_report(args) -> None:
    from .experiments import load_cached

    result = load_cached(
        args.name, overrides=_config_overrides(args), seed=args.seed,
        plan=_resolve_plan(args.plan), cache=_experiment_cache(args))
    if result is None:
        raise ConfigurationError(
            f"no cached result for {args.name!r} with this config/seed; "
            f"run `repro experiment run {args.name}` first")
    _print_experiment(result, args.json)


def _cmd_experiment_verify(args) -> None:
    """Every claim of the named specs (``--all``: of every spec that
    declares claims) on three seeds: the per-claim index on stdout,
    exit 1 naming each claim broken on any seed."""
    import json
    import sys

    from .experiments import all_specs, verify_claims
    from .experiments.claims import render_markdown

    if bool(args.names) == args.all:
        raise SystemExit("repro: name the specs to verify or pass --all, "
                         "not both")
    names = (list(dict.fromkeys(args.names))
             or [spec.name for spec in all_specs() if spec.claims])
    verdicts = verify_claims(names, workers=args.workers,
                             cache=_experiment_cache(args))
    print(json.dumps([v.snapshot() for v in verdicts], indent=2,
                     sort_keys=True) if args.json
          else render_markdown(verdicts))
    failed = {kind: [f"{v.spec}:{v.claim.id}" for v in verdicts
                     if getattr(v, kind)]
              for kind in ("broken", "vacuous")}
    held = sum(v.held for v in verdicts)
    print(f"# {held} of {len(verdicts)} claim(s) held on every seed",
          file=sys.stderr)
    if failed["broken"] or failed["vacuous"]:
        raise SystemExit("repro: " + "; ".join(
            f"{len(names)} claim(s) {kind}: " + ", ".join(names)
            for kind, names in failed.items() if names))


def _scenario_target(args):
    """The scenario a ``repro scenario`` verb addresses: a bundled name
    or a ``--matrix`` file, never both."""
    from .scenarios import get_scenario, load_matrix

    if args.matrix:
        if args.name:
            raise SystemExit(
                "repro: give a bundled scenario NAME or --matrix FILE, "
                "not both")
        return load_matrix(args.matrix)
    if not args.name:
        raise SystemExit(
            "repro: a scenario NAME (see `repro scenario list`) or "
            "--matrix FILE is required")
    return get_scenario(args.name)


def _scenario_config(args, scenario):
    from .scenarios import ScenarioConfig

    return ScenarioConfig(
        scenario=scenario,
        smoke=args.smoke,
        seed=args.seed,
        workers=getattr(args, "workers", None),
        cells=tuple(args.cell or ()),
        select=_split_sets(args.set),
        force=getattr(args, "force", False),
        checkpoint_every=getattr(args, "checkpoint_every", 0))


def _print_scenario(result, args) -> None:
    """Report/rows to stdout, cache status to stderr, HTML to ``--html``
    — stdout stays byte-identical whether cells computed or hit the
    cache (the scenario-smoke CI job diffs exactly this)."""
    import sys

    variant = " (smoke)" if result.matrix.smoke else ""
    print(f"# scenario {result.matrix.scenario}{variant}: "
          f"{len(result.cells)} cell(s), {result.n_cached} cached",
          file=sys.stderr)
    if args.json:
        import json

        print(json.dumps(
            [{"cell": cell.id, "config": r.config, "seed": r.seed,
              "key": r.key, "cached": r.cached, "rows": r.rows}
             for cell, r in zip(result.cells, result.results)],
            indent=2, sort_keys=True))
    else:
        print(result.report())
    html = getattr(args, "html", None)
    if html:
        with open(html, "w", encoding="utf-8") as fh:
            fh.write(result.report_html())
        print(f"# HTML report written to {html}", file=sys.stderr)


def _cmd_scenario_list(args) -> None:
    from .scenarios import list_scenarios

    scenarios = list_scenarios()
    if args.json:
        import json

        print(json.dumps(
            [{"name": s.name, "description": s.description,
              "experiment": s.experiment, "plan": s.plan,
              "replicas": s.replicas,
              "cells": len(s.matrix().cells()),
              "smoke_cells": (len(s.matrix(smoke=True).cells())
                              if s.smoke is not None else None)}
             for s in scenarios], indent=2, sort_keys=True))
        return
    print(format_table(
        ["Name", "Experiment", "Cells", "Smoke", "Plan", "Description"],
        [(s.name, s.experiment, str(len(s.matrix().cells())),
          str(len(s.matrix(smoke=True).cells()))
          if s.smoke is not None else "-",
          s.plan or "-", s.description)
         for s in scenarios],
        title="Bundled scenarios (repro scenario run <name>)"))


def _cmd_scenario_show(args) -> None:
    # The matrix as written: its cells are checked against the spec's
    # parameters when it runs, so showing it imports no spec family.
    scenario = _scenario_target(args)
    matrix = scenario.matrix(smoke=args.smoke)
    cells = matrix.cells()
    if args.json:
        import json

        print(json.dumps(
            {**matrix.snapshot(),
             "description": matrix.description,
             "cells": [cell.snapshot() for cell in cells]},
            indent=2, sort_keys=True))
        return
    variant = " (smoke)" if matrix.smoke else ""
    print(f"{matrix.scenario}{variant}: {matrix.description}")
    print(f"experiment={matrix.experiment} plan={matrix.plan or '-'} "
          f"replicas={matrix.replicas}")
    if matrix.options:
        print("options: " + ", ".join(
            f"{k}={v}" for k, v in sorted(matrix.options.items())))
    print(format_table(
        ["Cell", "Coordinates", "Overrides", "Plan"],
        [(cell.id,
          ", ".join(f"{a}={v}" for a, v in cell.coords) or "-",
          ", ".join(f"{k}={v}"
                    for k, v in sorted(cell.overrides.items())) or "-",
          matrix.cell_plan(cell) or "-")
         for cell in cells],
        title=f"Cells ({len(cells)})"))


def _run_scenario(args, config) -> None:
    from .scenarios import run_scenario

    result = run_scenario(config, cache=_experiment_cache(args))
    _print_scenario(result, args)
    write_manifest_arg(args, result, "scenario")


def _cmd_scenario_run(args) -> None:
    _run_scenario(args, _scenario_config(args, _scenario_target(args)))


def _cmd_scenario_report(args) -> None:
    from .scenarios import load_scenario

    result = load_scenario(
        _scenario_config(args, _scenario_target(args)),
        cache=_experiment_cache(args))
    _print_scenario(result, args)


def _count_arg(what: str, minimum: int):
    """An argparse ``type`` for an integer *what* of at least *minimum*,
    so a bad count is refused by flag name before the verb runs."""
    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer {what}, got {value!r}") from None
        if count < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be >= {minimum}, got {count}")
        return count
    return parse


#: Shared ``--workers`` validation: a positive process count.
_workers_arg = _count_arg("process count", 1)
#: Shared ``--checkpoint-every`` validation: 0 is off, never negative.
_cadence_arg = _count_arg("checkpoint cadence", 0)


#: Sentinel: the verb takes no ``--seed`` at all (vs. default None).
_OMIT = object()


def _common_options(*, seed=_OMIT, workers: bool = False,
                    json_flag: bool = False,
                    manifest: bool = False) -> argparse.ArgumentParser:
    """One parent parser carrying the requested shared options, so every
    verb spells ``--seed`` / ``--workers`` / ``--json`` / ``--manifest``
    identically (same types, same validation, same help text)."""
    parent = argparse.ArgumentParser(add_help=False)
    if seed is not _OMIT:
        parent.add_argument(
            "--seed", type=int, default=seed,
            help="base RNG seed" + (" (default: the spec's seed policy)"
                                    if seed is None else ""))
    if workers:
        parent.add_argument(
            "--workers", type=_workers_arg, default=None,
            help="process count (default: REPRO_FLEET_WORKERS "
                 "or cpu count; 1 = serial)")
    if json_flag:
        parent.add_argument("--json", action="store_true",
                            help="machine-readable output")
    if manifest:
        parent.add_argument(
            "--manifest", metavar="PATH", default=None,
            help="write the run manifest JSON to PATH")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contiguitas (ISCA 2023) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment", help="declarative experiments with result caching")
    esub = experiment.add_subparsers(dest="experiment_command",
                                     required=True)

    elist = esub.add_parser("list", help="registered experiment specs",
                            parents=[_common_options(json_flag=True)])
    elist.set_defaults(fn=_cmd_experiment_list)

    def _cache_dir_option(cell_parser) -> None:
        cell_parser.add_argument(
            "--cache-dir", metavar="PATH", default=None,
            help="result cache root (default: benchmarks/results/cache "
                 "or $REPRO_EXPERIMENT_CACHE)")

    def _experiment_cell_options(cell_parser, *, force: bool) -> None:
        """Options shared by run/report beyond the common set."""
        cell_parser.add_argument(
            "name", metavar="NAME",
            help="spec name (see `experiment list`)")
        cell_parser.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="config override (JSON scalar; repeatable)")
        cell_parser.add_argument(
            "--plan", default=None,
            help="named fault plan (keyed into the cache address)")
        _cache_dir_option(cell_parser)
        if force:
            cell_parser.add_argument(
                "--force", action="store_true",
                help="recompute and overwrite even on a cache hit")

    erun = esub.add_parser(
        "run", help="run one experiment cell (cache-aware)",
        parents=[_common_options(seed=None, workers=True,
                                 json_flag=True, manifest=True)])
    _experiment_cell_options(erun, force=True)
    erun.add_argument(
        "--checkpoint-every", type=_cadence_arg, default=0, metavar="N",
        help="mid-cell durability: producers checkpoint every N units "
             "of work under <cache>/checkpoints/<key> and auto-resume "
             "on the next miss of the same cell")
    erun.add_argument(
        "--resume-from", metavar="DIR", default=None,
        help="resume the cell from checkpoints in DIR instead of the "
             "derived <cache>/checkpoints/<key> (implies "
             "--checkpoint-every 1 unless given)")
    erun.set_defaults(fn=_cmd_experiment_run)

    ereport = esub.add_parser(
        "report", help="render a cached result without computing",
        parents=[_common_options(seed=None, json_flag=True)])
    _experiment_cell_options(ereport, force=False)
    ereport.set_defaults(fn=_cmd_experiment_report)

    everify = esub.add_parser(
        "verify", help="check specs' paper claims on the spec's seed and "
                       "the two after it (exit 1 when one breaks)",
        parents=[_common_options(workers=True, json_flag=True)])
    everify.add_argument("names", nargs="*", metavar="NAME",
                         help="spec names (see `experiment list`)")
    everify.add_argument("--all", action="store_true",
                         help="every spec that declares claims")
    _cache_dir_option(everify)
    everify.set_defaults(fn=_cmd_experiment_verify)

    scenario = sub.add_parser(
        "scenario",
        help="declarative scenario matrices (bundled library or files)")
    ssub = scenario.add_subparsers(dest="scenario_command", required=True)

    slist = ssub.add_parser("list", help="bundled scenario library",
                            parents=[_common_options(json_flag=True)])
    slist.set_defaults(fn=_cmd_scenario_list)

    def _scenario_target_options(target_parser) -> None:
        """Options every scenario-addressing verb shares."""
        target_parser.add_argument(
            "name", metavar="NAME", nargs="?", default=None,
            help="bundled scenario name (see `scenario list`)")
        target_parser.add_argument(
            "--matrix", metavar="FILE", default=None,
            help="use a scenario matrix file instead of a bundled name")
        target_parser.add_argument(
            "--smoke", action="store_true",
            help="the scenario's CI-sized smoke variant")

    def _scenario_select_options(target_parser, *, force: bool) -> None:
        """Cell-selection and cache options for run/report."""
        target_parser.add_argument(
            "--cell", action="append", metavar="ID",
            help="only this cell id (repeatable; see `scenario show`)")
        target_parser.add_argument(
            "--set", action="append", metavar="AXIS=VALUE",
            help="pin an axis to one value id (repeatable)")
        _cache_dir_option(target_parser)
        target_parser.add_argument(
            "--html", metavar="PATH", default=None,
            help="also write the report as standalone HTML to PATH")
        if force:
            target_parser.add_argument(
                "--force", action="store_true",
                help="recompute and overwrite even on cache hits")

    sshow = ssub.add_parser(
        "show", help="a scenario's compiled matrix and cell ids",
        parents=[_common_options(json_flag=True)])
    _scenario_target_options(sshow)
    sshow.set_defaults(fn=_cmd_scenario_show)

    srun = ssub.add_parser(
        "run", help="run every selected cell of a scenario (cache-aware)",
        parents=[_common_options(seed=None, workers=True,
                                 json_flag=True, manifest=True)])
    _scenario_target_options(srun)
    _scenario_select_options(srun, force=True)
    srun.add_argument(
        "--checkpoint-every", type=_cadence_arg, default=0, metavar="N",
        help="mid-cell durability within each cell (see "
             "`experiment run --checkpoint-every`)")
    srun.set_defaults(fn=_cmd_scenario_run)

    sreport = ssub.add_parser(
        "report", help="render a scenario report from cache, computing "
                       "nothing",
        parents=[_common_options(seed=None, json_flag=True)])
    _scenario_target_options(sreport)
    _scenario_select_options(sreport, force=False)
    sreport.set_defaults(fn=_cmd_scenario_report)

    checkpoint = sub.add_parser(
        "checkpoint", help="inspect or resume durable run checkpoints")
    csub = checkpoint.add_subparsers(dest="checkpoint_command",
                                     required=True)

    cinspect = csub.add_parser(
        "inspect", help="describe both checkpoint generations and their "
                        "sections (header and checksums only — never "
                        "decodes a section)",
        parents=[_common_options(json_flag=True)])
    cinspect.add_argument("dir", metavar="DIR",
                          help="checkpoint directory")
    cinspect.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="watchdog staleness threshold: a current generation older "
             "than this marks the run hung (default: 600)")
    cinspect.set_defaults(fn="repro.tools:cmd_checkpoint_inspect")

    cresume = csub.add_parser(
        "resume", help="continue a killed run from its last good "
                       "checkpoint (self-describing: the config rides "
                       "in the checkpoint)")
    cresume.add_argument("dir", metavar="DIR",
                         help="checkpoint directory")
    cresume.add_argument(
        "--name", default=None,
        help="store name when DIR holds several (*.ckpt basename)")
    cresume.add_argument(
        "--checkpoint-every", type=_cadence_arg, default=0, metavar="N",
        help="override the cadence recorded in the checkpoint")
    cresume.add_argument(
        "--manifest", metavar="PATH", default=None,
        help="write the resumed run's manifest JSON to PATH")
    cresume.set_defaults(fn="repro.tools:cmd_checkpoint_resume")

    trace = sub.add_parser(
        "trace", help="dump/filter a tracepoint event stream",
        parents=[_common_options(seed=0)])
    trace.add_argument("--input", metavar="PATH", default=None,
                       help="read a JSONL event stream instead of running "
                            "a workload")
    trace.add_argument("--match", action="append", metavar="GLOB",
                       help="only events whose name matches (repeatable)")
    trace.add_argument("--limit", type=_count_arg("event count", 0),
                       default=0,
                       help="print only the last N events")
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="write matching events as JSONL instead of "
                            "pretty-printing")
    trace.add_argument("--service", default="cache-b",
                       help="registered service to run (default: "
                            "cache-b)")
    trace.add_argument("--mem-mib", type=_count_arg("MiB count", 16),
                       default=128)
    trace.add_argument("--steps", type=_count_arg("step count", 0),
                       default=60)
    trace.set_defaults(fn="repro.tools:cmd_trace")

    metrics = sub.add_parser(
        "metrics", help="pretty-print one run manifest, or diff two",
        parents=[_common_options(json_flag=True)])
    metrics.add_argument("manifests", nargs="+", metavar="MANIFEST",
                         help="one manifest to summarise, or two to diff")
    metrics.set_defaults(fn="repro.tools:cmd_metrics")

    lint = sub.add_parser(
        "lint", help="determinism & invariant static analysis "
                     "(simlint + deeplint)",
        parents=[_common_options(json_flag=True)])
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--deep", action="store_true",
                      help="also run the whole-program passes "
                           "(DL101-DL104) against docs/OBSERVABILITY.md "
                           "and docs/API.md")
    lint.add_argument("--sarif", metavar="PATH",
                      help="write findings as SARIF 2.1.0 to PATH "
                           "('-' for stdout)")
    lint.add_argument("--docs", metavar="DIR",
                      help="directory holding OBSERVABILITY.md/API.md "
                           "(default: discovered by walking up from the "
                           "linted paths)")
    lint.set_defaults(fn="repro.tools:cmd_lint")

    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    handler = args.fn
    if isinstance(handler, str):
        # A ``"module:function"`` door string: the tool verbs' module is
        # imported only when one of them runs.
        from importlib import import_module

        module, _, name = handler.partition(":")
        handler = getattr(import_module(module), name)
    try:
        handler(args)
    except (ConfigurationError, CheckpointError) as exc:
        # Bad user input (flag values, config combinations, a checkpoint
        # directory with no readable generation): the typed message
        # already names the remedy, so no traceback.
        raise SystemExit(f"repro: {exc}")
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        import os
        import sys

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os._exit(0)
