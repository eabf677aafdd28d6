"""Regenerate every paper figure, table and ablation.

Each figure is an experiment spec that declares the paper's claims
about it (``repro experiment list``).  One test per such spec runs it
through ``run_experiment`` — served from the content-addressed result
cache after the first run, so the shared fleet survey and steady-state
profile are simulated once — and writes the rendered report to
``results/<name with - as _>.txt``, byte for byte what ``repro
experiment run <name>`` prints, rewrites the copy of that file in
EXPERIMENTS.md (the ``text`` block under its ``results/<file>``
comment), and then checks the spec's claims on that seed.  ``repro
experiment verify --all`` checks them on three.

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py
    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -k fig11
"""

import os

import pytest

from repro.experiments import all_specs, run_experiment, verify_claims

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
EXPERIMENTS_MD = os.path.join(os.path.dirname(__file__), "..",
                              "EXPERIMENTS.md")

FIGURES = [spec.name for spec in all_specs() if spec.claims]


@pytest.mark.parametrize("name", FIGURES)
def test_figure(name):
    report = run_experiment(name).report()
    stem = name.replace("-", "_") + ".txt"
    with open(os.path.join(RESULTS_DIR, stem), "w") as fh:
        fh.write(report + "\n")
    marker = f"<!-- results/{stem} -->\n```text\n"
    with open(EXPERIMENTS_MD) as fh:
        head, found, rest = fh.read().partition(marker)
    assert found, f"EXPERIMENTS.md quotes no results/{stem}"
    with open(EXPERIMENTS_MD, "w") as fh:
        fh.write(head + marker + report + "\n" + rest[rest.index("```\n"):])
    print(f"\n{report}")
    assert [f"{v.claim.id}: {v.measured[0]}"
            for v in verify_claims([name], seeds=1) if not v.held] == []
