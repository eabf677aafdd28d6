"""TelemetryConfig: the one observability knob experiment entry points take.

Instead of growing ``run_fleet`` (and each benchmark) a pile of
positional tracing parameters, callers pass a single validated config::

    from repro.telemetry import TelemetryConfig

    run_fleet(FleetConfig(n_servers=8, telemetry=TelemetryConfig(
        trace=True, events_path="events.jsonl",
        manifest_path="manifest.json")))

``None`` (the default everywhere) means telemetry fully off — the
near-zero-cost path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability settings for one run.

    Attributes:
        trace: enable tracepoints for the duration of the run.
        trace_patterns: glob patterns selecting which tracepoints fire
            (default: all).
        events_path: when set, dump the run's event stream there as
            JSONL (readable by ``repro trace --input``).
        manifest_path: when set, write the run manifest JSON there.

    A traced run without an ``events_path`` keeps its most recent
    events in a :class:`~repro.telemetry.RingBufferSink` of the default
    capacity, and every run with a config builds a manifest (returned
    on the result object, and written when ``manifest_path`` is set).
    """

    trace: bool = False
    trace_patterns: tuple[str, ...] = ("*",)
    events_path: str | None = None
    manifest_path: str | None = None

    def __post_init__(self) -> None:
        if not self.trace_patterns:
            raise ConfigurationError("trace_patterns must not be empty")
        if self.events_path is not None and not self.trace:
            raise ConfigurationError(
                "events_path requires trace=True (no events are recorded "
                "with tracing off)")
