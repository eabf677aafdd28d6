"""Workload models: production services, fragmenters, load generation.

The typed front door (mirroring ``repro.fleet``):

* :func:`get_service` / :func:`register_service` — the kebab-case
  service registry
  (``"web"``, ``"cache-b"``, ...; legacy CamelCase aliases resolve);
* :class:`WorkloadConfig` + :func:`run_workload` — one frozen config
  in, one :class:`WorkloadResult` out;
* :class:`LoadgenConfig` + :func:`run_loadgen` — open-loop
  trace-driven load generation with tail-latency recording
  (:mod:`repro.workloads.tracegen`).
"""

from .._lazy import lazy_exports

__all__ = [
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

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Workload", "WorkloadSpec"),
    ".config": ("WorkloadConfig", "WorkloadResult", "run_workload"),
    ".fragmenter": ("fragment_fully", "fragment_partially"),
    ".registry": ("canonical_service_name", "get_service",
                  "register_service"),
    ".requestloop": ("LoopResult", "MigrationSchedule", "RequestLoop",
                     "relative_throughput_simulated"),
    ".tracegen": ("LatencyRecorder", "LoadgenConfig", "LoadgenResult",
                  "TraceShape", "get_shape", "register_shape", "run_loadgen",
                  "sample_arrivals", "sample_service"),
    ".interference": ("MEMCACHED", "NGINX", "REGULAR_RATE", "VERY_HIGH_RATE",
                      "ServerApp", "interference_overhead",
                      "migration_window_cycles"),
    ".services": ("PRODUCTION_SERVICES", "WALK_CHARACTERISATION"),
})
