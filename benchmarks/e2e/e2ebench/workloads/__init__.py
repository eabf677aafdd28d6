"""The six workloads, by ``BENCHMARK.json`` name.

Modules are imported on demand: each workload runs in its own process,
and its peak RSS should not carry the other five's imports.
"""

from __future__ import annotations

import importlib

_MODULES = {
    "server-aging": ("server_aging", "ServerAging"),
    "kernel-replay": ("kernel_replay", "KernelReplay"),
    "loadgen-burst": ("loadgen_burst", "LoadgenBurst"),
    "fleet-survey": ("fleet_survey", "FleetSurvey"),
    "scenario-cli": ("scenario_cli", "ScenarioCli"),
    "durable-run": ("durable_run", "DurableRun"),
}

NAMES = tuple(_MODULES)


def load(name: str):
    """A fresh instance of the workload called *name*."""
    module, cls = _MODULES[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), cls)()
