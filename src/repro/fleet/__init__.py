"""Fleet study tooling: simulated servers, sampling, statistics (§2.4).

Public surface (docs/API.md): :class:`FleetConfig` + :func:`run_fleet`
(per-server scans kept) / :func:`survey_fleet` (constant memory) are
the typed front doors.
"""

from .config import FleetConfig
from .engine import (
    WorkerOutcome,
    check_survey_fit,
    estimate_survey_bytes,
    iter_fleet_scans,
    resolve_workers,
)
from .sampler import (
    FleetSample,
    FleetSummary,
    run_fleet,
    survey_fleet,
)
from .server import FLEET_SERVICES, ServerConfig, ServerScan, SimulatedServer
from .stats import median, pearson, percentile

__all__ = [
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
