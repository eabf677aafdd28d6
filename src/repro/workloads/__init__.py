"""Workload models: production services, fragmenters, load generation.

The typed front door (mirroring ``repro.fleet``):

* :func:`get_service` / :func:`list_services` /
  :func:`register_service` — the kebab-case service registry
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
    "TraceEvent",
    "TraceRecorder",
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
    "list_services",
    "list_shapes",
    "load_trace",
    "migration_window_cycles",
    "register_service",
    "register_shape",
    "relative_throughput",
    "relative_throughput_simulated",
    "replay",
    "run_loadgen",
    "run_workload",
    "sample_arrivals",
    "sample_service",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("Workload", "WorkloadSpec"),
    ".config": ("WorkloadConfig", "WorkloadResult", "run_workload"),
    ".fragmenter": ("fragment_fully", "fragment_partially"),
    ".registry": ("canonical_service_name", "get_service", "list_services",
                  "register_service"),
    ".requestloop": ("LoopResult", "MigrationSchedule", "RequestLoop",
                     "relative_throughput_simulated"),
    ".tracegen": ("LatencyRecorder", "LoadgenConfig", "LoadgenResult",
                  "TraceShape", "get_shape", "list_shapes", "register_shape",
                  "run_loadgen", "sample_arrivals", "sample_service"),
    ".tracelog": ("TraceEvent", "TraceRecorder", "load_trace", "replay"),
    ".interference": ("MEMCACHED", "NGINX", "REGULAR_RATE", "VERY_HIGH_RATE",
                      "ServerApp", "interference_overhead",
                      "migration_window_cycles", "relative_throughput"),
    ".services": ("PRODUCTION_SERVICES", "WALK_CHARACTERISATION"),
})
