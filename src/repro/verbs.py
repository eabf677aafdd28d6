"""The handlers of the ``experiment`` verbs and of ``scenario list`` and
``scenario show``.

:mod:`repro.cli` declares every verb's options and names these
handlers by ``"repro.verbs:function"`` door strings that
:func:`repro.cli.main` resolves after parsing, so a warm ``scenario
run`` never compiles this module (docs/INTERNALS.md, "Import tiers").
"""

from __future__ import annotations

from .analysis.reporting import format_table
from .cli import (experiment_cache, scenario_target, split_sets,
                  write_manifest_arg)
from .errors import ConfigurationError


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


def _config_overrides(args) -> dict:
    """The experiment verbs' ``--set`` pairs as config overrides: each
    value a JSON scalar (``--set n_servers=12``, ``--set label='"x"'``),
    falling back to the plain string."""
    import json

    overrides = {}
    for key, raw in split_sets(args.set).items():
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


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


def cmd_experiment_list(args) -> None:
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


def cmd_experiment_run(args) -> None:
    from .experiments import run_experiment

    # --resume-from alone implies per-unit checkpointing: the point of
    # naming a directory is continuing the killed cell from it.
    every = args.checkpoint_every or (1 if args.resume_from else 0)
    result = run_experiment(
        args.name, overrides=_config_overrides(args), seed=args.seed,
        workers=args.workers, plan=_resolve_plan(args.plan),
        cache=experiment_cache(args), force=args.force,
        checkpoint_every=every, checkpoint_dir=args.resume_from)
    _print_experiment(result, args.json)
    write_manifest_arg(args, result, "run")


def cmd_experiment_report(args) -> None:
    from .experiments import load_cached

    result = load_cached(
        args.name, overrides=_config_overrides(args), seed=args.seed,
        plan=_resolve_plan(args.plan), cache=experiment_cache(args))
    if result is None:
        raise ConfigurationError(
            f"no cached result for {args.name!r} with this config/seed; "
            f"run `repro experiment run {args.name}` first")
    _print_experiment(result, args.json)


def cmd_experiment_verify(args) -> None:
    """Every claim of the named specs (``--all``: of every spec that
    declares claims) on three seeds: the per-claim index on stdout,
    exit 1 naming each claim broken on any seed."""
    import json
    import sys

    from .experiments import all_specs
    from .experiments.verify import render_markdown, verify_claims

    if bool(args.names) == args.all:
        raise SystemExit("repro: name the specs to verify or pass --all, "
                         "not both")
    names = (list(dict.fromkeys(args.names))
             or [spec.name for spec in all_specs() if spec.claims])
    verdicts = verify_claims(names, workers=args.workers,
                             cache=experiment_cache(args))
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


def cmd_scenario_list(args) -> None:
    from .scenarios import list_scenarios

    scenarios = list_scenarios()
    if args.json:
        import json

        print(json.dumps(
            [{"name": s.name, "description": s.full.description,
              "experiment": s.full.experiment, "plan": s.full.plan,
              "replicas": s.full.replicas,
              "cells": len(s.full.cells()),
              "smoke_cells": (len(s.smoke.cells())
                              if s.smoke is not None else None)}
             for s in scenarios], indent=2, sort_keys=True))
        return
    print(format_table(
        ["Name", "Experiment", "Cells", "Smoke", "Plan", "Description"],
        [(s.name, s.full.experiment, str(len(s.full.cells())),
          str(len(s.smoke.cells())) if s.smoke is not None else "-",
          s.full.plan or "-", s.full.description)
         for s in scenarios],
        title="Bundled scenarios (repro scenario run <name>)"))


def cmd_scenario_show(args) -> None:
    # The matrix as written: its cells are checked against the spec's
    # parameters when it runs, so showing it imports no spec family.
    scenario = scenario_target(args)
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
