"""Declarative scenario matrices over the experiment layer.

The front door for running named what-if campaigns::

    from repro.scenarios import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig("uce-degrade", smoke=True))
    print(result.report())

A scenario is a JSON matrix file — a base experiment spec plus axes
of named values (``src/repro/scenarios/library/*.json`` ships 10+ of
them; ``repro scenario list`` enumerates).  Matrices compile through
the :class:`~repro.experiments.Axis`/:class:`~repro.experiments.Cell`
engine and :func:`run_scenario` is the one grid runner (``repro
experiment sweep`` hands it a spec's own axes), so scenario cells share
the experiment layer's content-addressed cache, checkpoint/resume, fault
plans, and bit-identity-across-workers contract unchanged.  See
docs/API.md for the stable surface and EXPERIMENTS.md for the CLI
walkthrough.
"""

from .loader import (
    get_scenario,
    library_dir,
    list_scenarios,
    load_matrix,
    scenario_from_dict,
)
from .model import (
    Scenario,
    ScenarioMatrix,
    Smoke,
)
from .report import (
    render_html,
    render_markdown,
)
from .runner import (
    ScenarioConfig,
    ScenarioResult,
    load_scenario,
    run_scenario,
)

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "ScenarioMatrix",
    "ScenarioResult",
    "Smoke",
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
