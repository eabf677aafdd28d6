"""Unified observability layer: tracepoints, metrics, run manifests.

The paper's evaluation hinges on observing *why* memory fragments —
per-event counts of pageblock steals, compaction scans, migration
failures, page-walk cycles.  This package is the single home for that
instrumentation, in the spirit of ftrace tracepoints and collectl-style
experiment manifests:

* :mod:`repro.telemetry.events` — named :class:`Tracepoint` probes with a
  near-zero-cost disabled path;
* :mod:`repro.telemetry.sinks` — typed :class:`TraceEvent` records
  carrying simulated-time timestamps, ring-buffer / JSONL sinks and the
  :func:`tracing` scope;
* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and log2-bucket histograms (:mod:`~repro.telemetry.instruments`),
  all exposing the uniform ``snapshot()`` / ``merge()`` surface;
* :mod:`repro.telemetry.manifest` — machine-readable per-run manifests
  (config, seed, git revision, counter snapshot), built when a run
  result's ``manifest`` is first read
  (:mod:`~repro.telemetry.lazymanifest`), and the diffing used by
  ``repro metrics``.

Tracing a run is scoping it: ``with tracing("mm.*", sink=...):`` around
any front door call.

The pre-existing stats surfaces — :class:`repro.mm.vmstat.VmStat`, the
fleet aggregates, sim-side stats — are thin facades over these
primitives; see ``docs/OBSERVABILITY.md`` for the tracepoint catalogue
and manifest schema.
"""

from .._lazy import lazy_exports

# Resolved on first use: a warm ``scenario run`` needs the probes, the
# registry and ``lazymanifest``, never the sinks, the instruments or the
# manifest code (docs/INTERNALS.md, "Import tiers").
__getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("TRACEPOINTS", "Tracepoint", "TracepointRegistry",
                "set_sim_clock", "tracepoint"),
    ".instruments": ("Gauge", "Histogram"),
    ".manifest": ("build_manifest", "format_manifest",
                  "format_manifest_diff", "load_manifest", "manifest_diff",
                  "write_manifest"),
    ".metrics": ("CounterSet", "MetricsRegistry"),
    ".sinks": ("JsonlSink", "RingBufferSink", "TraceEvent", "read_jsonl",
               "tracing"),
})

__all__ = [
    "TRACEPOINTS",
    "CounterSet",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "RingBufferSink",
    "TraceEvent",
    "Tracepoint",
    "TracepointRegistry",
    "build_manifest",
    "format_manifest",
    "format_manifest_diff",
    "load_manifest",
    "manifest_diff",
    "read_jsonl",
    "set_sim_clock",
    "tracepoint",
    "tracing",
    "write_manifest",
]
