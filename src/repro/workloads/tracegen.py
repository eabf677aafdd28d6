"""Open-loop trace-driven load generation with tail-latency recording.

The paper's §5.3 interference story (Fig. 13) is about what buffer
migrations do to *live traffic*.  A closed-loop probe
(:meth:`RequestLoop.run`) hides the damage: when a request is slow the
next one simply starts later, so queueing delay never accumulates and
throughput dips look small.  Production cares about the opposite view —
requests arrive on their own schedule whether or not the server is
ready, and every stall shows up as queueing in the tail.

This module generates that schedule.  A :class:`TraceShape` describes
interarrival and service-time distributions from heavy-tailed families
(lognormal / Pareto / exponential) with diurnal and spike modulation —
the shapes production traces like Azure Functions exhibit.  The driver
precomputes arrivals, dispatches each request against a
:class:`RequestLoop` on the timing core *independent of completion*
(``start = max(arrival, server busy-until)``), and records per-request
latency (completion − arrival) into log2 histograms plus an exact
sample list, split into requests that overlapped a migration window and
requests that did not.

Determinism: every random draw comes from a named per-site stream —
``tracegen:arrivals:<shape>:<seed>``, ``tracegen:spikes:<shape>:<seed>``,
``tracegen:service:<shape>:<seed>`` — mirroring ``repro.faults``'s
``fault:<site>:<seed>`` idiom.  The same (config, seed) pair yields
byte-identical latency rows on any host at any worker count.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import asdict, dataclass

from ..core.hwext.metadata import AccessMode
from ..errors import ConfigurationError
from ..sim.params import ArchParams, DEFAULT_PARAMS
from ..run import RunSession
from ..telemetry import Histogram, MetricsRegistry, tracepoint
from ..telemetry.manifest import LazyManifest
from .interference import MEMCACHED, NGINX, ServerApp
from .requestloop import MigrationSchedule, RequestLoop

_tp_start = tracepoint("loadgen.start")
_tp_spike = tracepoint("loadgen.spike")
_tp_window = tracepoint("loadgen.window")
_tp_done = tracepoint("loadgen.done")

#: Distribution families a :class:`TraceShape` may draw from.
FAMILIES = ("exponential", "lognormal", "pareto")

#: Migration designs the generator can run against (§5.2): the
#: noncacheable/cacheable Contiguitas-HW variants, or ``"none"`` for a
#: migration-free baseline.
DESIGNS = ("noncacheable", "cacheable", "none")

#: Guard rail: a config offering more requests than this is refused
#: instead of silently simulating an hour if rate*duration explodes.
MAX_REQUESTS = 100_000

#: Request-serving applications available to the generator.
APPS: dict[str, ServerApp] = {"nginx": NGINX, "memcached": MEMCACHED}

_NAME_RE = re.compile(r"^[a-z0-9]+(?:-[a-z0-9]+)*$")


@dataclass(frozen=True)
class TraceShape:
    """Statistical shape of one production traffic trace.

    Interarrival times and service demands are drawn from independent
    distributions normalised to mean 1 and scaled by the configured
    rate / mean service size, so one shape serves any load level.
    Time-dependent fields (diurnal period, spike cadence) are in
    *simulated* seconds — runs span a few milliseconds of simulated
    time, so a "day" is compressed the same way
    ``WorkloadSpec.diurnal_period_steps`` compresses it.

    Attributes:
        name: kebab-case registry name.
        interarrival: family for gaps between arrivals.
        interarrival_cv: coefficient of variation (lognormal family).
        interarrival_alpha: tail index (Pareto family; must be > 1 so
            the mean exists and the rate is well-defined).
        service: family for per-request instruction counts.
        service_cv / service_alpha: as above, for the service draw.
        service_mean_instructions: mean request size in instructions.
        service_cap_instructions: hard cap on one request's size —
            Pareto tails are unbounded and a single 10^7-instruction
            draw would stall the simulation on its ~10^5 buffer
            touches (compute is retired as a count).  Output-defining.
        diurnal_amplitude: rate modulation ``1 + A*sin(2*pi*t/period)``;
            0 disables, must stay < 1 so the rate remains positive.
        diurnal_period_s: period of the compressed "day".
        spike_rate_per_s: Poisson cadence of load spikes; 0 disables.
        spike_magnitude: rate multiplier while a spike is active.
        spike_duration_s: how long each spike lasts.
    """

    name: str
    interarrival: str = "exponential"
    interarrival_cv: float = 1.0
    interarrival_alpha: float = 1.5
    service: str = "lognormal"
    service_cv: float = 0.5
    service_alpha: float = 2.0
    service_mean_instructions: int = 400
    service_cap_instructions: int = 20_000
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 2e-3
    spike_rate_per_s: float = 0.0
    spike_magnitude: float = 4.0
    spike_duration_s: float = 1e-4

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ConfigurationError(
                f"trace shape name {self.name!r} is not kebab-case")
        for field_name, family in (("interarrival", self.interarrival),
                                   ("service", self.service)):
            if family not in FAMILIES:
                raise ConfigurationError(
                    f"{field_name} family {family!r} not one of {FAMILIES}")
        for field_name, alpha in (
                ("interarrival_alpha", self.interarrival_alpha),
                ("service_alpha", self.service_alpha)):
            if alpha <= 1.0:
                raise ConfigurationError(
                    f"{field_name} must be > 1 for a finite mean, "
                    f"got {alpha}")
        for field_name, cv in (("interarrival_cv", self.interarrival_cv),
                               ("service_cv", self.service_cv)):
            if cv <= 0:
                raise ConfigurationError(
                    f"{field_name} must be > 0, got {cv}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError(
                "diurnal_amplitude must be in [0, 1) so the modulated "
                f"rate stays positive, got {self.diurnal_amplitude}")
        if self.diurnal_period_s <= 0 or self.spike_duration_s <= 0:
            raise ConfigurationError("periods/durations must be > 0")
        if self.spike_rate_per_s < 0 or self.spike_magnitude <= 0:
            raise ConfigurationError(
                "spike_rate_per_s must be >= 0 and spike_magnitude > 0")
        if self.service_mean_instructions < 16:
            raise ConfigurationError(
                "service_mean_instructions must be >= 16 (a request "
                "needs at least one buffer touch)")
        if self.service_cap_instructions < self.service_mean_instructions:
            raise ConfigurationError(
                "service_cap_instructions must be >= the mean")


_SHAPES: dict[str, TraceShape] = {}


def register_shape(shape: TraceShape, replace: bool = False) -> TraceShape:
    """Add *shape* to the registry under its kebab-case name."""
    if not isinstance(shape, TraceShape):
        raise ConfigurationError(
            f"register_shape takes a TraceShape, got {type(shape).__name__}")
    if shape.name in _SHAPES and not replace:
        raise ConfigurationError(
            f"trace shape {shape.name!r} already registered "
            "(pass replace=True to override)")
    _SHAPES[shape.name] = shape
    return shape


def get_shape(name: str) -> TraceShape:
    """Look up a registered trace shape by name."""
    try:
        return _SHAPES[name]
    except KeyError:
        known = ", ".join(sorted(_SHAPES)) or "<none>"
        raise ConfigurationError(
            f"unknown trace shape {name!r}; known shapes: {known}") from None


#: Poisson arrivals, near-constant service: the M/M/1 textbook case and
#: the calibration baseline.
STEADY = register_shape(TraceShape(
    name="steady", interarrival="exponential",
    service="lognormal", service_cv=0.3))

#: Web-tier traffic: bursty lognormal arrivals riding a compressed
#: diurnal wave (§2's fleetwide utilisation story).
DIURNAL_WEB = register_shape(TraceShape(
    name="diurnal-web", interarrival="lognormal", interarrival_cv=1.5,
    service="lognormal", service_cv=1.0,
    diurnal_amplitude=0.6, diurnal_period_s=2e-3))

#: FaaS-style load: heavy-tailed interarrival burstiness and Pareto
#: service durations, after the published Azure Functions trace shapes.
AZURE_FAAS = register_shape(TraceShape(
    name="azure-faas", interarrival="lognormal", interarrival_cv=4.0,
    service="pareto", service_alpha=1.9,
    spike_rate_per_s=2000.0, spike_magnitude=4.0, spike_duration_s=1e-4))

#: Cache-tier traffic: memoryless arrivals punctuated by hot-key spikes.
SPIKY_CACHE = register_shape(TraceShape(
    name="spiky-cache", interarrival="exponential",
    service="lognormal", service_cv=0.8, service_mean_instructions=300,
    spike_rate_per_s=1500.0, spike_magnitude=6.0, spike_duration_s=2e-4))


def _draw_mean1(rng: random.Random, family: str, cv: float,
                alpha: float) -> float:
    """One positive draw with mean 1 from the configured family."""
    if family == "exponential":
        return rng.expovariate(1.0)
    if family == "lognormal":
        sigma_sq = math.log(1.0 + cv * cv)
        return rng.lognormvariate(-sigma_sq / 2.0, math.sqrt(sigma_sq))
    # Pareto with tail index alpha, scaled so the mean is exactly 1.
    return (alpha - 1.0) / alpha * rng.paretovariate(alpha)


def sample_arrivals(shape: TraceShape, rate_rps: float, duration_s: float,
                    seed: int = 0) -> tuple[list[float], int]:
    """Arrival timestamps (simulated seconds) over ``[0, duration_s)``.

    Gaps come from the shape's interarrival family with the local rate
    modulated by the diurnal wave and any active spike.  Returns the
    timestamps and how many spikes triggered.
    """
    arr_rng = random.Random(f"tracegen:arrivals:{shape.name}:{seed}")
    spike_rng = random.Random(f"tracegen:spikes:{shape.name}:{seed}")
    arrivals: list[float] = []
    spikes = 0
    spike_end = -1.0
    if shape.spike_rate_per_s > 0:
        next_spike = spike_rng.expovariate(shape.spike_rate_per_s)
    else:
        next_spike = float("inf")
    two_pi_over_period = 2.0 * math.pi / shape.diurnal_period_s
    t = 0.0
    while True:
        local_rate = rate_rps
        if shape.diurnal_amplitude:
            local_rate *= 1.0 + shape.diurnal_amplitude * math.sin(
                two_pi_over_period * t)
        while t >= next_spike:
            spike_end = next_spike + shape.spike_duration_s
            next_spike += spike_rng.expovariate(shape.spike_rate_per_s)
            spikes += 1
            if _tp_spike.enabled:
                _tp_spike.emit(at_s=round(t, 9),
                               magnitude=shape.spike_magnitude)
        if t < spike_end:
            local_rate *= shape.spike_magnitude
        gap = _draw_mean1(arr_rng, shape.interarrival,
                          shape.interarrival_cv,
                          shape.interarrival_alpha) / local_rate
        t += gap
        if t >= duration_s:
            return arrivals, spikes
        arrivals.append(t)


def sample_service(shape: TraceShape, n: int, seed: int = 0) -> list[int]:
    """Per-request instruction counts for *n* requests."""
    rng = random.Random(f"tracegen:service:{shape.name}:{seed}")
    mean = shape.service_mean_instructions
    cap = shape.service_cap_instructions
    return [
        max(16, min(cap, int(round(mean * _draw_mean1(
            rng, shape.service, shape.service_cv, shape.service_alpha)))))
        for _ in range(n)
    ]


class LatencyRecorder:
    """Per-request latency: a log2 histogram plus the exact samples.

    The histogram merges across runs and folds into manifests like any
    other telemetry; the sample list gives exact nearest-rank
    percentiles — p999 on a few hundred requests would be meaningless
    at one-doubling resolution.
    """

    __slots__ = ("hist", "samples")

    def __init__(self) -> None:
        self.hist = Histogram()
        self.samples: list[int] = []

    def observe(self, cycles: float) -> None:
        v = int(round(cycles))
        self.hist.observe(v)
        self.samples.append(v)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return (sum(self.samples) / len(self.samples)
                if self.samples else 0.0)

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile over the recorded samples."""
        if not 0 <= q <= 100:
            raise ConfigurationError(f"q={q} outside [0, 100]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = math.ceil(q / 100.0 * len(ordered))
        return float(ordered[max(0, rank - 1)])

    def percentiles(self, qs: tuple[float, ...] = (50.0, 99.0, 99.9)
                    ) -> list[float]:
        """Batch :meth:`percentile` (one sort for all ranks)."""
        if not self.samples:
            return [0.0 for _ in qs]
        ordered = sorted(self.samples)
        out = []
        for q in qs:
            if not 0 <= q <= 100:
                raise ConfigurationError(f"q={q} outside [0, 100]")
            rank = math.ceil(q / 100.0 * len(ordered))
            out.append(float(ordered[max(0, rank - 1)]))
        return out

    def summary(self, freq_ghz: float) -> dict:
        """JSON-safe stats row: counts plus latency in microseconds."""
        cycles_per_us = freq_ghz * 1e3
        p50, p99, p999 = self.percentiles((50.0, 99.0, 99.9))
        return {
            "requests": self.count,
            "mean_us": round(self.mean / cycles_per_us, 3),
            "p50_us": round(p50 / cycles_per_us, 3),
            "p99_us": round(p99 / cycles_per_us, 3),
            "p999_us": round(p999 / cycles_per_us, 3),
            "max_us": round((max(self.samples) if self.samples else 0)
                            / cycles_per_us, 3),
        }


@dataclass(frozen=True)
class LoadgenConfig:
    """One open-loop load-generation run, fully specified.

    Attributes:
        shape: registered :class:`TraceShape` name.
        rate_rps: mean offered arrival rate (requests per simulated
            second).  Simulated spans are short, so rates are high:
            2e6 rps for 1 ms offers ~2000 requests.
        duration_s: simulated span to generate arrivals over.
        app: serving application (``"nginx"`` / ``"memcached"``).
        design: migration design the server runs under —
            ``"noncacheable"``, ``"cacheable"``, or ``"none"`` for a
            migration-free baseline.
        migrations_per_second: buffer migration rate (ignored for
            ``design="none"``).  Like the Fig. 13 sweep this is a
            boosted simulation rate, not a production rate; the default
            keeps windows open ~30% of the run so both latency classes
            collect meaningful samples.
        buffer_pages: networking buffer pool size.
        seed: run seed; every stream derives from it by name.
    """

    shape: str = "azure-faas"
    rate_rps: float = 2_000_000.0
    duration_s: float = 1e-3
    app: str = "nginx"
    design: str = "noncacheable"
    migrations_per_second: float = 12_000.0
    buffer_pages: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        get_shape(self.shape)  # raises with the known-shape list
        if self.app not in APPS:
            raise ConfigurationError(
                f"unknown app {self.app!r}; known: {sorted(APPS)}")
        if self.design not in DESIGNS:
            raise ConfigurationError(
                f"unknown design {self.design!r}; known: {DESIGNS}")
        # NaN fails every comparison below and would generate forever.
        for name in ("rate_rps", "duration_s", "migrations_per_second"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.rate_rps <= 0 or self.duration_s <= 0:
            raise ConfigurationError(
                "rate_rps and duration_s must be > 0")
        if self.migrations_per_second < 0:
            raise ConfigurationError(
                "migrations_per_second must be >= 0")
        if self.buffer_pages < 8:
            raise ConfigurationError(
                f"buffer_pages must be >= 8, got {self.buffer_pages}")
        expected = self.rate_rps * self.duration_s
        if expected > MAX_REQUESTS:
            raise ConfigurationError(
                f"rate_rps*duration_s offers ~{expected:.0f} requests, "
                f"above max_requests={MAX_REQUESTS}; lower the rate "
                "or duration")

    def snapshot(self) -> dict:
        """JSON-safe view of the configuration, and the identity a
        checkpoint of this run records; it names the guard rail too, so
        format-12 checkpoints keep resuming."""
        return {**asdict(self), "max_requests": MAX_REQUESTS}


@dataclass
class LoadgenResult(LazyManifest):
    """Outcome of one :func:`run_loadgen` run, and its manifest, built
    on first read of :attr:`manifest`.

    ``latency`` maps class name to its recorder: ``"all"`` for every
    request, ``"migration"`` for requests whose lifetime overlapped a
    migration window, ``"quiet"`` for the rest.
    """

    config: dict
    requests: int
    windows_seen: int
    spikes: int
    span_cycles: float
    freq_ghz: float
    latency: dict[str, LatencyRecorder]

    @property
    def achieved_rps(self) -> float:
        """Completed requests per simulated second."""
        span_s = self.span_cycles / (self.freq_ghz * 1e9)
        return self.requests / span_s if span_s > 0 else 0.0

    def summary(self) -> dict[str, dict]:
        """Per-class stats rows keyed by class name."""
        return {cls: rec.summary(self.freq_ghz)
                for cls, rec in sorted(self.latency.items())}

    def rows(self) -> list[dict]:
        """Flat JSON-safe rows (one per latency class), class-sorted."""
        return [{"class": cls, **stats}
                for cls, stats in self.summary().items()]

    def snapshot(self) -> dict:
        """JSON-safe outcome: what ``repro checkpoint resume`` prints
        for a resumed burst."""
        return {"requests": self.requests,
                "windows_seen": self.windows_seen,
                "spikes": self.spikes,
                "achieved_rps": round(self.achieved_rps, 3),
                "rows": self.rows()}

    def manifest_derived(self) -> dict:
        """Counters, latency histograms and per-class percentiles: the
        percentiles sort every sample, so they wait for a reader."""
        metrics = MetricsRegistry()
        metrics.inc("loadgen.requests", self.requests)
        metrics.inc("loadgen.windows", self.windows_seen)
        metrics.inc("loadgen.spikes", self.spikes)
        for cls, rec in self.latency.items():
            metrics.histogram(f"loadgen.latency.{cls}").merge(rec.hist)
        return {
            "counters": metrics.counters.snapshot(),
            "metrics": metrics.snapshot(),
            "aggregates": {
                "achieved_rps": round(self.achieved_rps, 3),
                **{f"{cls}.{key}": val
                   for cls, stats in self.summary().items()
                   for key, val in stats.items()}}}


def _run_open_loop(config: LoadgenConfig, params: ArchParams,
                   session: RunSession) -> LoadgenResult:
    shape = get_shape(config.shape)
    app = APPS[config.app]
    freq_hz = params.freq_ghz * 1e9

    # Arrivals and service demands are pure functions of (shape, rate,
    # duration, seed) via named streams, so a resumed run regenerates
    # them instead of carrying ~10^5 floats in every checkpoint.
    arrivals, spikes = sample_arrivals(
        shape, config.rate_rps, config.duration_s, seed=config.seed)
    services = sample_service(shape, len(arrivals), seed=config.seed)

    ckpt = session.restore()
    if ckpt is not None:
        loop = ckpt.payload["loop"]
        schedule: MigrationSchedule | None = ckpt.payload["schedule"]
        recorders = ckpt.payload["recorders"]
        windows_before = ckpt.payload["windows_before"]
    else:
        loop = RequestLoop(app, params, buffer_pages=config.buffer_pages,
                           seed=config.seed)
        schedule = None
        if config.design != "none" and config.migrations_per_second > 0:
            schedule = loop.make_schedule(config.migrations_per_second)
        recorders = {"all": LatencyRecorder(),
                     "migration": LatencyRecorder(),
                     "quiet": LatencyRecorder()}
        windows_before = 0
        if _tp_start.enabled:
            _tp_start.emit(shape=shape.name, app=app.name,
                           design=config.design, rate_rps=config.rate_rps,
                           offered=len(arrivals))
    mode = (AccessMode.CACHEABLE
            if config.design == "cacheable" and schedule is not None
            else AccessMode.NONCACHEABLE)

    core = loop.core
    for index in range(ckpt.step if ckpt is not None else 0, len(arrivals)):
        arrival_s, instructions = arrivals[index], services[index]
        arrival = arrival_s * freq_hz
        if core.stats.cycles < arrival:
            # Server idle until this arrival: open-loop dispatch means
            # the clock jumps forward, it never waits for permission.
            core.stats.cycles = arrival
        loop.serve_request(mode=mode, schedule=schedule,
                           instructions=instructions)
        latency = core.stats.cycles - arrival
        recorders["all"].observe(latency)
        if schedule is not None and schedule.overlaps_since(arrival):
            recorders["migration"].observe(latency)
        else:
            recorders["quiet"].observe(latency)
        if (_tp_window.enabled and schedule is not None
                and schedule.windows_seen > windows_before):
            _tp_window.emit(opened=schedule.windows_seen - windows_before,
                            total=schedule.windows_seen)
            windows_before = schedule.windows_seen
        # One attribute test per request when not checkpointing.
        if session.store is not None:
            session.boundary(index + 1, lambda: {
                "loop": loop, "schedule": schedule, "recorders": recorders,
                "windows_before": windows_before})

    windows_seen = schedule.windows_seen if schedule else 0
    result = LoadgenResult(
        config=config.snapshot(),
        requests=len(arrivals),
        windows_seen=windows_seen,
        spikes=spikes,
        span_cycles=core.stats.cycles,
        freq_ghz=params.freq_ghz,
        latency=recorders)
    if _tp_done.enabled:
        _tp_done.emit(requests=result.requests, windows=windows_seen,
                      p99_us=result.summary()["all"]["p99_us"])
    return result


def run_loadgen(config: LoadgenConfig,
                params: ArchParams = DEFAULT_PARAMS, *,
                checkpoint_every: int = 0,
                checkpoint_dir: str | None = None,
                resume: bool = False) -> LoadgenResult:
    """Run one open-loop load-generation burst.

    Arrivals are sampled from the configured :class:`TraceShape`,
    dispatched against a :class:`RequestLoop` under the configured
    migration design, and per-request latencies recorded.  The result's
    ``manifest`` (latency histograms included) is built when first read.

    With ``checkpoint_every > 0`` and a ``checkpoint_dir``, the request
    loop checkpoints every N served requests; ``resume=True`` restores
    the last good checkpoint of *this* config and finishes the burst
    with a manifest byte-identical to an uninterrupted run's.  The
    plumbing is :class:`repro.run.RunSession`'s.
    """
    session = RunSession("loadgen", config, config.snapshot(),
                         checkpoint_every=checkpoint_every,
                         checkpoint_dir=checkpoint_dir, resume=resume)
    result = _run_open_loop(config, params, session)
    result.manifest_parts = session.manifest(seed=config.seed)
    return result
