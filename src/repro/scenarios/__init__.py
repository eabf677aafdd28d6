"""Declarative scenario matrices over the experiment layer.

The front door for running named what-if campaigns::

    from repro.scenarios import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig("uce-degrade", smoke=True))
    print(result.report())

A scenario is a JSON matrix file — a base experiment spec plus axes
of named values (``src/repro/scenarios/library/*.json`` ships 10+ of
them; ``repro scenario list`` enumerates).  Every matrix — a file, a
dict, the replicas scenario ``verify_claims`` builds — is checked once
by :func:`scenario_from_dict`, expands straight to cells, and
:func:`run_scenario` is the one grid runner (a spec declares no grid of
its own), so scenario cells share
the experiment layer's content-addressed cache, checkpoint/resume, fault
plans, and bit-identity-across-workers contract unchanged.  See
docs/API.md for the stable surface and EXPERIMENTS.md for the CLI
walkthrough.
"""

from .._lazy import lazy_exports
from .loader import (
    get_scenario,
    library_dir,
    list_scenarios,
    load_matrix,
)
from .model import (
    Scenario,
    ScenarioMatrix,
    scenario_from_dict,
)
from .report import render_markdown
from .runner import (
    ScenarioConfig,
    ScenarioResult,
    load_scenario,
    run_scenario,
)

# Resolved on first use: only ``--html`` needs the HTML renderer.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".htmlreport": ("render_html",)})

__all__ = [
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
