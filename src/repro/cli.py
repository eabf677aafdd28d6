"""Command-line interface: run the paper's experiments from a shell.

Every simulation is an experiment spec (``repro experiment list``), so
it is seeded by policy, cached, ``--json``-able and leaves a manifest;
``scenario`` runs matrices of specs, ``checkpoint`` inspects a killed
run's checkpoints (rerunning its command finishes it), and the other
verbs are tools.

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
        --set design=cacheable            # a §5.3 open-loop burst
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
are declared by one function so every verb spells and validates them
identically.  :func:`main` builds every verb's name and help but the
options of the verb it runs only (:class:`_Verb`), and this module holds
the handlers of ``scenario run`` and ``scenario report`` alone: the
other verbs' handlers live in :mod:`repro.verbs` and the tool verbs'
(``lint``, ``trace``, ``metrics``, ``checkpoint``) in
:mod:`repro.tools`, each named here by a ``"module:function"`` door
string, so a warm ``scenario run`` compiles neither
(docs/INTERNALS.md, "Import tiers").
"""

from __future__ import annotations

import argparse

from .errors import CheckpointError, ConfigurationError


def split_sets(pairs: list[str] | None) -> dict[str, str]:
    """``--set KEY=VALUE`` pairs as a dict, both sides still strings
    (what a scenario's axis pins are: ``--set rate_krps=1000`` pins
    value id ``"1000"``).  A KEY given twice is refused: no order of
    the flags should decide which value runs."""
    split = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--set expects KEY=VALUE, got {pair!r}")
        if key in split:
            raise ConfigurationError(f"--set gives {key!r} twice")
        split[key] = value
    return split


def experiment_cache(args):
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


def scenario_target(args):
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
        select=split_sets(args.set),
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


def _cmd_scenario_run(args) -> None:
    from .scenarios import run_scenario

    result = run_scenario(_scenario_config(args, scenario_target(args)),
                          cache=experiment_cache(args))
    _print_scenario(result, args)
    write_manifest_arg(args, result, "scenario")


def _cmd_scenario_report(args) -> None:
    from .scenarios import load_scenario

    result = load_scenario(
        _scenario_config(args, scenario_target(args)),
        cache=experiment_cache(args))
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


def _common_options(parser, *, seed=_OMIT, workers: bool = False,
                    json_flag: bool = False, manifest: bool = False):
    """Add the requested shared options to *parser*, so every verb
    spells ``--seed`` / ``--workers`` / ``--json`` / ``--manifest``
    identically (same types, same validation, same help text)."""
    if seed is not _OMIT:
        parser.add_argument(
            "--seed", type=int, default=seed,
            help="base RNG seed" + (" (default: the spec's seed policy)"
                                    if seed is None else ""))
    if workers:
        parser.add_argument(
            "--workers", type=_workers_arg, default=None,
            help="process count (default: REPRO_FLEET_WORKERS "
                 "or cpu count; 1 = serial)")
    if json_flag:
        parser.add_argument("--json", action="store_true",
                            help="machine-readable output")
    if manifest:
        parser.add_argument(
            "--manifest", metavar="PATH", default=None,
            help="write the run manifest JSON to PATH")


class _Verb(argparse.ArgumentParser):
    """A parser whose arguments its *options* function adds the first
    time it parses (or on :meth:`fill`).  ``repro --help`` needs only
    the verbs' names and help, and argparse hands the rest of the
    command line to the one subparser it names, so :func:`main` builds
    the options of the verb it runs and of no other, with every help
    and usage text what the full tree (:func:`build_parser`) prints."""

    def __init__(self, *args, options=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._options = options
        self.subverbs: list[_Verb] = []

    def fill(self) -> None:
        options, self._options = self._options, None
        if options is not None:
            options(self)

    # argparse calls it, on the command line and on the one subparser
    # the command line names.
    def parse_known_args(self, args=None,  # simlint: disable=DL105
                         namespace=None):
        self.fill()
        return super().parse_known_args(args, namespace)


def _subverbs(dest: str, *verbs):
    """The options of a verb with subcommands: *verbs*, each a
    ``(name, help, options)`` row."""
    def options(parser: _Verb) -> None:
        sub = parser.add_subparsers(dest=dest, required=True)
        parser.subverbs = [sub.add_parser(name, help=text, options=fill)
                           for name, text, fill in verbs]
    return options


def _leaf(handler, add=None, **common):
    """The options of a verb that runs *handler* (a function, or a
    ``"module:function"`` door string): the shared options *common*
    asks for (:func:`_common_options`), then *add*'s."""
    def options(parser: _Verb) -> None:
        _common_options(parser, **common)
        if add is not None:
            add(parser)
        parser.set_defaults(fn=handler)
    return options


def _cache_dir_option(parser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="result cache root (default: benchmarks/results/cache "
             "or $REPRO_EXPERIMENT_CACHE)")


def _experiment_cell_options(parser, force: bool = False) -> None:
    """``experiment run``/``report``'s options beyond the common set."""
    parser.add_argument(
        "name", metavar="NAME",
        help="spec name (see `experiment list`)")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="config override (JSON scalar; repeatable)")
    parser.add_argument(
        "--plan", default=None,
        help="named fault plan (keyed into the cache address)")
    _cache_dir_option(parser)
    if force:
        parser.add_argument(
            "--force", action="store_true",
            help="recompute and overwrite even on a cache hit")


def _experiment_run(parser) -> None:
    _experiment_cell_options(parser, force=True)
    parser.add_argument(
        "--checkpoint-every", type=_cadence_arg, default=0, metavar="N",
        help="mid-cell durability: producers checkpoint every N units "
             "of work under <cache>/checkpoints/<key> and auto-resume "
             "on the next miss of the same cell")
    parser.add_argument(
        "--resume-from", metavar="DIR", default=None,
        help="resume the cell from checkpoints in DIR instead of the "
             "derived <cache>/checkpoints/<key> (implies "
             "--checkpoint-every 1 unless given)")


def _experiment_verify(parser) -> None:
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="spec names (see `experiment list`)")
    parser.add_argument("--all", action="store_true",
                        help="every spec that declares claims")
    _cache_dir_option(parser)


def _scenario_target_options(parser) -> None:
    """Options every scenario-addressing verb shares."""
    parser.add_argument(
        "name", metavar="NAME", nargs="?", default=None,
        help="bundled scenario name (see `scenario list`)")
    parser.add_argument(
        "--matrix", metavar="FILE", default=None,
        help="use a scenario matrix file instead of a bundled name")
    parser.add_argument(
        "--smoke", action="store_true",
        help="the scenario's CI-sized smoke variant")


def _scenario_select_options(parser, force: bool = False) -> None:
    """``scenario report``'s options, and ``run``'s but its cadence."""
    _scenario_target_options(parser)
    parser.add_argument(
        "--cell", action="append", metavar="ID",
        help="only this cell id (repeatable; see `scenario show`)")
    parser.add_argument(
        "--set", action="append", metavar="AXIS=VALUE",
        help="pin an axis to one value id (repeatable)")
    _cache_dir_option(parser)
    parser.add_argument(
        "--html", metavar="PATH", default=None,
        help="also write the report as standalone HTML to PATH")
    if force:
        parser.add_argument(
            "--force", action="store_true",
            help="recompute and overwrite even on cache hits")


def _scenario_run(parser) -> None:
    _scenario_select_options(parser, force=True)
    parser.add_argument(
        "--checkpoint-every", type=_cadence_arg, default=0, metavar="N",
        help="mid-cell durability within each cell (see "
             "`experiment run --checkpoint-every`)")


def _checkpoint_inspect(parser) -> None:
    parser.add_argument("dir", metavar="DIR",
                        help="checkpoint directory")
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="watchdog staleness threshold: a current generation older "
             "than this marks the run hung (default: 600)")


def _trace(parser) -> None:
    parser.add_argument("--input", metavar="PATH", default=None,
                        help="read a JSONL event stream instead of "
                             "running a workload")
    parser.add_argument("--match", action="append", metavar="GLOB",
                        help="only events whose name matches "
                             "(repeatable)")
    parser.add_argument("--limit", type=_count_arg("event count", 0),
                        default=0,
                        help="print only the last N events")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write matching events as JSONL instead of "
                             "pretty-printing")
    parser.add_argument("--service", default="cache-b",
                        help="registered service to run (default: "
                             "cache-b)")
    parser.add_argument("--mem-mib", type=_count_arg("MiB count", 16),
                        default=128)
    parser.add_argument("--steps", type=_count_arg("step count", 0),
                        default=60)


def _metrics(parser) -> None:
    parser.add_argument("manifests", nargs="+", metavar="MANIFEST",
                        help="one manifest to summarise, or two to diff")


def _lint(parser) -> None:
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: the "
                             "installed repro package)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--deep", action="store_true",
                        help="also run the whole-program passes "
                             "(DL101-DL104) against docs/OBSERVABILITY.md "
                             "and docs/API.md")
    parser.add_argument("--sarif", metavar="PATH",
                        help="write findings as SARIF 2.1.0 to PATH "
                             "('-' for stdout)")
    parser.add_argument("--docs", metavar="DIR",
                        help="directory holding OBSERVABILITY.md/API.md "
                             "(default: discovered by walking up from the "
                             "linted paths)")


#: The command tree.  Each verb's options are added only when it parses.
_REPRO = _subverbs(
    "command",
    ("experiment", "declarative experiments with result caching",
     _subverbs(
         "experiment_command",
         ("list", "registered experiment specs",
          _leaf("repro.verbs:cmd_experiment_list", json_flag=True)),
         ("run", "run one experiment cell (cache-aware)",
          _leaf("repro.verbs:cmd_experiment_run", _experiment_run,
                seed=None, workers=True, json_flag=True, manifest=True)),
         ("report", "render a cached result without computing",
          _leaf("repro.verbs:cmd_experiment_report",
                _experiment_cell_options, seed=None, json_flag=True)),
         ("verify", "check specs' paper claims on the spec's seed and "
                    "the two after it (exit 1 when one breaks)",
          _leaf("repro.verbs:cmd_experiment_verify", _experiment_verify,
                workers=True, json_flag=True)))),
    ("scenario", "declarative scenario matrices (bundled library or "
                 "files)",
     _subverbs(
         "scenario_command",
         ("list", "bundled scenario library",
          _leaf("repro.verbs:cmd_scenario_list", json_flag=True)),
         ("show", "a scenario's compiled matrix and cell ids",
          _leaf("repro.verbs:cmd_scenario_show", _scenario_target_options,
                json_flag=True)),
         ("run", "run every selected cell of a scenario (cache-aware)",
          _leaf(_cmd_scenario_run, _scenario_run, seed=None,
                workers=True, json_flag=True, manifest=True)),
         ("report", "render a scenario report from cache, computing "
                    "nothing",
          _leaf(_cmd_scenario_report, _scenario_select_options,
                seed=None, json_flag=True)))),
    ("checkpoint", "inspect durable run checkpoints",
     _subverbs(
         "checkpoint_command",
         ("inspect", "describe both checkpoint generations and their "
                     "sections (header and checksums only — never "
                     "decodes a section)",
          _leaf("repro.tools:cmd_checkpoint_inspect", _checkpoint_inspect,
                json_flag=True)))),
    ("trace", "dump/filter a tracepoint event stream",
     _leaf("repro.tools:cmd_trace", _trace, seed=0)),
    ("metrics", "pretty-print one run manifest, or diff two",
     _leaf("repro.tools:cmd_metrics", _metrics, json_flag=True)),
    ("lint", "determinism & invariant static analysis "
             "(simlint + deeplint)",
     _leaf("repro.tools:cmd_lint", _lint, json_flag=True)))


def build_parser(lazy: bool = False) -> argparse.ArgumentParser:
    """The ``repro`` parser with every verb's options, or, *lazy* (what
    :func:`main` parses with), each verb's added when it parses."""
    parser = _Verb(prog="repro", options=_REPRO,
                   description="Contiguitas (ISCA 2023) reproduction "
                               "experiments")
    pending = [] if lazy else [parser]
    while pending:
        verb = pending.pop()
        verb.fill()
        pending.extend(verb.subverbs)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser(lazy=True).parse_args(argv)
    handler = args.fn
    if isinstance(handler, str):
        # A ``"module:function"`` door string: the module holding the
        # handler is imported only when its verb runs (by ``__import__``,
        # so ``-X importtime`` lists it).
        module, _, name = handler.partition(":")
        handler = getattr(__import__(module, fromlist=(name,)), name)
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
