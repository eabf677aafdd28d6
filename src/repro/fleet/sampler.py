"""Fleet sampling: run many servers and aggregate scans (§2.4, Figs. 4-6).

The paper randomly samples tens of thousands of 64 GiB production servers
and scans their physical memory.  :func:`run_fleet` and
:func:`survey_fleet` — the typed front doors, taking one frozen
:class:`~repro.fleet.FleetConfig` — run N independent
:class:`~repro.fleet.server.SimulatedServer` instances (scaled down but
statistically diverse: different services, uptimes, and seeds) through
one streaming loop that folds every scan into fleet-level aggregates;
``run_fleet`` also keeps the per-server scans, ``survey_fleet`` stays in
constant memory.

Every result carries a manifest (config, seeds, merged vmstat counters,
aggregates) for ``repro metrics`` diffing, built when first read;
``run_fleet``'s ``checkpoint_every``/``checkpoint_dir``/``resume``
keywords make a campaign resumable (:class:`repro.run.RunSession`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..mm.page import AllocSource
from ..run import RunSession
from ..telemetry import CounterSet
from ..telemetry.lazymanifest import LazyManifest
from .config import FleetConfig
from .engine import check_survey_fit, iter_fleet_scans, resolve_workers
from .server import UTILIZATION_RANGE, ServerConfig, ServerScan
from .stats import median, pearson

#: Per-server metrics addressable through :meth:`FleetSample.series`.
SERIES_METRICS = ("contiguity", "unmovable")


@dataclass
class FleetSample(LazyManifest):
    """Aggregated results of one fleet-sampling campaign, and its
    manifest, built on first read of :attr:`manifest` (not a field, so
    equality is the scans')."""

    scans: list[ServerScan]

    def completed_scans(self) -> list[ServerScan]:
        """Scans from servers that actually ran (degraded ``failed=True``
        placeholders excluded); what every aggregate is computed over."""
        return [s for s in self.scans if not s.failed]

    def series(self, metric: str, granularity: str) -> list[float]:
        """Per-server values of one scan *metric* at one *granularity*.

        ``metric`` is ``"contiguity"`` (free-contiguity fraction) or
        ``"unmovable"`` (unmovable-block fraction); granularities are the
        scan-report keys (``"4KB"``/``"2MB"``/``"1GB"``...).  Degraded
        scans carry no measurements and are skipped.
        """
        if metric not in SERIES_METRICS:
            raise ConfigurationError(
                f"unknown series metric {metric!r}; one of {SERIES_METRICS}")
        return [getattr(s, metric)[granularity]
                for s in self.completed_scans()]

    def fraction_without_any(self, granularity: str = "2MB") -> float:
        """Paper §2.4: the fraction of servers with *zero* free blocks at
        a granularity (23 % for 2 MiB at Meta).

        An empty fleet has no servers lacking blocks, so the fraction is
        0.0 rather than a ZeroDivisionError (mirrors
        :meth:`source_breakdown`'s empty-fleet behaviour).
        """
        live = self.completed_scans()
        if not live:
            return 0.0
        zeroes = sum(1 for s in live
                     if s.contiguity[granularity] == 0.0)
        return zeroes / len(live)

    def median_unmovable(self, granularity: str = "2MB") -> float:
        return median(self.series("unmovable", granularity))

    def uptime_correlation(self) -> float:
        """Pearson correlation of uptime vs free 2 MiB block count
        (the paper measures 0.00286 — effectively none)."""
        live = self.completed_scans()
        return pearson(
            [float(s.uptime_steps) for s in live],
            [float(s.free_2m_blocks) for s in live],
        )

    def _summary(self) -> "FleetSummary":
        """Every fleet-level aggregate, folded in index order through
        the same aggregator :func:`survey_fleet` streams into — which is
        what makes the two front doors' snapshots byte-identical."""
        agg = _StreamAggregator()
        for index, scan in enumerate(self.scans):
            agg.add(index, scan)
        return agg.finalize()

    def source_breakdown(self) -> dict[AllocSource, float]:
        """Fleet-wide unmovable source fractions (Fig. 6)."""
        return self._summary().source_breakdown

    def vmstat_totals(self) -> CounterSet:
        """Merged vmstat counters across every server in the sample."""
        return self._summary().vmstat

    def snapshot(self) -> dict:
        """Fleet-level aggregates as one plain dict
        (the telemetry ``snapshot()`` surface)."""
        return self._summary().snapshot()

    def manifest_derived(self) -> dict:
        return self._summary().manifest_derived()

    @classmethod
    def from_snapshots(cls, rows) -> "FleetSample":
        """Rebuild a sample from per-scan :meth:`ServerScan.snapshot`
        dicts — the JSON-safe form the experiment result cache stores.
        Aggregates are derived, so reconstructing the scans
        reconstructs everything."""
        return cls(scans=[ServerScan.from_snapshot(row) for row in rows])


@dataclass
class FleetSummary(LazyManifest):
    """Constant-memory aggregates of one fleet survey.

    The streaming counterpart of :class:`FleetSample`: the same
    fleet-level numbers, but computed incrementally by
    :func:`survey_fleet` without ever materialising the scan list.
    :meth:`snapshot` is bit-identical to :meth:`FleetSample.snapshot`
    for the same campaign.
    """

    n_servers: int
    n_failed_servers: int
    fraction_without_any_2mb: float
    median_unmovable_2mb: float
    uptime_correlation: float
    source_breakdown: dict[AllocSource, float]
    vmstat: CounterSet

    def snapshot(self) -> dict:
        """Same keys, same values, same order as
        :meth:`FleetSample.snapshot`."""
        snap = {
            "n_servers": self.n_servers,
            "n_failed_servers": self.n_failed_servers,
            "fraction_without_any_2mb": self.fraction_without_any_2mb,
            "median_unmovable_2mb": self.median_unmovable_2mb,
            "uptime_correlation": self.uptime_correlation,
        }
        for src, frac in sorted(self.source_breakdown.items(),
                                key=lambda kv: kv[0].name):
            snap[f"unmovable_share.{src.name.lower()}"] = frac
        return snap

    def vmstat_totals(self) -> CounterSet:
        """Merged vmstat counters (:class:`FleetSample` parity)."""
        return self.vmstat

    def manifest_derived(self) -> dict:
        return {"counters": self.vmstat, "aggregates": self.snapshot()}


class _StreamAggregator:
    """Folds ``(index, scan)`` pairs into :class:`FleetSummary` parts.

    Keeps four floats per completed server (uptime, free-2MiB count,
    2 MiB contiguity, 2 MiB unmovable fraction) instead of the full
    scan — a 1,000-server survey aggregates in a few tens of KiB.

    Bit-identity with :class:`FleetSample`: the integer folds (counter
    merges, source totals, zero-block counts) are order-independent,
    but :func:`~repro.fleet.stats.pearson` sums floats in series order,
    so the per-server rows are re-sorted by server index at
    :meth:`finalize` — exactly the order :meth:`FleetSample.snapshot`
    sees them in.
    """

    def __init__(self) -> None:
        #: Every server index folded so far: what a resumed campaign
        #: must not run again.
        self.seen: set[int] = set()
        self._rows: list[tuple[int, float, float, float]] = []
        self._source_totals: dict[AllocSource, int] = {}
        self._vmstat = CounterSet()

    def add(self, index: int, scan: ServerScan) -> None:
        self.seen.add(index)
        self._vmstat.merge(scan.vmstat)
        for src, n in scan.sources.items():
            self._source_totals[src] = self._source_totals.get(src, 0) + n
        if scan.failed:
            return
        self._rows.append((index, float(scan.uptime_steps),
                           float(scan.free_2m_blocks),
                           scan.contiguity["2MB"],
                           scan.unmovable["2MB"]))

    def snapshot(self) -> dict:
        """JSON-safe state: a ``fleet`` checkpoint's ``agg`` section."""
        return {"seen": sorted(self.seen), "rows": self._rows,
                "sources": {src.name: n for src, n
                            in self._source_totals.items()},
                "vmstat": self._vmstat.snapshot()}

    @classmethod
    def restore(cls, state: dict) -> "_StreamAggregator":
        """The aggregator :meth:`snapshot` described."""
        agg = cls()
        agg.seen = set(state["seen"])
        agg._rows = [tuple(row) for row in state["rows"]]
        agg._source_totals = {AllocSource[name]: n
                              for name, n in state["sources"].items()}
        agg._vmstat = CounterSet(state["vmstat"])
        return agg

    def finalize(self) -> FleetSummary:
        rows = sorted(self._rows)
        live = len(rows)
        zeroes = sum(1 for r in rows if r[3] == 0.0)
        grand = sum(self._source_totals.values())
        return FleetSummary(
            n_servers=len(self.seen),
            n_failed_servers=len(self.seen) - live,
            fraction_without_any_2mb=zeroes / live if live else 0.0,
            median_unmovable_2mb=(median([r[4] for r in rows])
                                  if live else 0.0),
            uptime_correlation=(pearson([r[1] for r in rows],
                                        [r[2] for r in rows])
                                if live > 1 else 0.0),
            source_breakdown=({src: n / grand for src, n
                               in self._source_totals.items()}
                              if grand else {}),
            vmstat=self._vmstat,
        )


def _manifest_config(n_servers: int, config: ServerConfig | None,
                     base_seed: int) -> dict:
    """Which campaign this is: the manifest's ``config`` section and
    the identity a checkpoint of it records.  The worker count is
    absent — it cannot change a scan."""
    cfg = config or ServerConfig()
    return {
        "n_servers": n_servers,
        "base_seed": base_seed,
        "mem_bytes": cfg.mem_bytes,
        "kernel": cfg.kernel_cls.__name__,
        "min_uptime_steps": cfg.min_uptime_steps,
        "max_uptime_steps": cfg.max_uptime_steps,
        # A constant, kept so manifests do not move.
        "utilization_range": list(UTILIZATION_RANGE),
        # Declarative chaos rides in the manifest so a chaos run diffs
        # cleanly against a clean run of the same seed.
        "fault_plan": (cfg.fault_plan.snapshot()
                       if cfg.fault_plan is not None else None),
    }


def _run_campaign(config: FleetConfig,
                  scans: dict[int, ServerScan] | None, **checkpointing):
    """The one fleet loop: stream scans as servers complete, fold each
    into the aggregator, and keep it in *scans* unless that is None.

    Returns ``(summary, scans)``.  A checkpoint (``run_fleet``'s only)
    is data: the aggregator's state (it knows which indices it has
    seen) and the kept scans, as JSON.  A resumed campaign runs only
    the servers the killed one never finished, and per-index seeding
    makes the outcome byte-identical to an uninterrupted run's.
    """
    if not isinstance(config, FleetConfig):
        raise ConfigurationError(
            "fleet campaigns take a FleetConfig, "
            f"got {type(config).__name__}")
    agg = _StreamAggregator()
    identity = _manifest_config(config.n_servers, config.server,
                                config.base_seed)
    # Every survey passes here, so every survey is sized before a
    # worker starts or a checkpoint directory is made.
    check_survey_fit(config.n_servers, identity["mem_bytes"],
                     config.workers)
    session = RunSession("fleet", identity, **checkpointing)
    ckpt = session.restore()
    if ckpt is not None:
        agg = _StreamAggregator.restore(ckpt.payload["agg"])
        scans = {index: ServerScan.from_snapshot(snap)
                 for index, snap in ckpt.payload["scans"]}
    for index, scan in iter_fleet_scans(
            config.n_servers, config=config.server,
            base_seed=config.base_seed, workers=config.workers,
            indices=([i for i in range(config.n_servers)
                      if i not in agg.seen] if agg.seen else None)):
        agg.add(index, scan)
        if scans is not None:
            scans[index] = scan
        session.boundary(len(agg.seen), lambda: {
            "agg": agg.snapshot(),
            "scans": [[i, s.snapshot()] for i, s in scans.items()]})
    summary = agg.finalize()
    summary.manifest_parts = session.manifest(
        seed=config.base_seed, workers=resolve_workers(config.workers))
    return summary, scans


def run_fleet(config: FleetConfig, /, *,
              checkpoint_every: int = 0,
              checkpoint_dir: str | None = None,
              resume: bool = False) -> FleetSample:
    """Run one fleet-sampling campaign described by a :class:`FleetConfig`.

    The typed front door (docs/API.md): every knob — sampling size,
    seeds, worker count — arrives on one frozen config, and the result
    is a :class:`FleetSample` whose scans are bit-identical for any
    worker count.

    ``FleetSample.manifest`` is the run manifest, built when first
    read; its deterministic view is identical for every worker count:
    per-server vmstat counters are snapshotted inside the seeded workers
    and merged here.  To trace the campaign, call this inside
    :func:`~repro.telemetry.tracing`.

    With a ``config.server.fault_plan`` installed this is the
    chaos-campaign entry point — the same seed and plan always produce
    the same manifest.

    ``checkpoint_every``/``checkpoint_dir`` make the campaign durable
    (every N completed servers); calling this again with
    ``resume=True`` finishes a killed one.  See
    :class:`repro.run.RunSession`.
    """
    summary, scans = _run_campaign(
        config, {}, checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir, resume=resume)
    sample = FleetSample(scans=[scans[i] for i in range(config.n_servers)])
    sample.manifest_parts = summary.manifest_parts
    return sample


def survey_fleet(config: FleetConfig) -> FleetSummary:
    """Run a fleet campaign in constant memory.

    The 1,000-server entry point: where :func:`run_fleet` holds every
    :class:`~repro.fleet.server.ServerScan` until the campaign ends,
    this keeps only the aggregator's four floats per server, so peak
    memory is independent of ``n_servers``.  Supervision (retries,
    fault plans) and the manifest's deterministic view are identical
    to :func:`run_fleet` for the same config — only the per-scan list
    is absent.  It takes no checkpoints.
    """
    return _run_campaign(config, None)[0]
