"""The fleet-survey family: ``fleet-survey``, the steady-state fleet
scan behind Figs. 4-6 and §2.4, and the four figures derived from it.
Each figure fetches the survey through the content-addressed cache, so
the first one pays for the campaign and the rest are cache hits."""

from __future__ import annotations

from .claims import Band, Ordered
from .common import _col
from .spec import ExperimentSpec, Table, register

#: The scan-report granularities every figure iterates.
GRANULARITIES = ("2MB", "4MB", "32MB", "1GB")

#: Fig. 4 CDF evaluation points (fraction of free memory in free blocks).
CDF_POINTS = (0.0, 0.05, 0.10, 0.20, 0.30, 0.50, 0.75, 1.0)

#: Fig. 5 CDF evaluation points (fraction of blocks holding unmovable
#: pages).
FIG05_CDF_POINTS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0)


def _produce_fleet_survey(ctx) -> list:
    """Run the fleet campaign and return per-server scan snapshots."""
    from ..fleet import FleetConfig, ServerConfig, run_fleet
    from ..units import MiB

    p = ctx.params
    server = ServerConfig(
        mem_bytes=MiB(p["mem_mib"]),
        min_uptime_steps=p["min_uptime_steps"],
        max_uptime_steps=p["max_uptime_steps"],
        fault_plan=ctx.fault_plan,
    )
    sample = run_fleet(
        FleetConfig(n_servers=p["n_servers"], server=server,
                    base_seed=ctx.seed, workers=ctx.workers),
        **ctx.checkpointing)
    return [scan.snapshot() for scan in sample.scans]


def _fetch_survey(ctx):
    """The figure specs' shared dependency: the fleet survey rows for
    this figure's (n_servers, mem_mib) at this run's seed, rebuilt into
    a :class:`~repro.fleet.FleetSample`."""
    from ..fleet import FleetSample

    rows = ctx.fetch("fleet-survey", overrides={
        "n_servers": ctx.params["n_servers"],
        "mem_mib": ctx.params["mem_mib"],
    })
    return FleetSample.from_snapshots(rows)


def _cdf(values: list, points: tuple) -> dict:
    """The fraction of *values* at or below each point, keyed by the
    point to two decimals."""
    return {f"{point:.2f}":
            (sum(1 for v in values if v <= point) / len(values)
             if values else 0.0)
            for point in points}


def _cdf_table(points: tuple, title: str) -> Table:
    """Figs. 4 and 5's table: one CDF row per granularity."""
    return Table(title, (("Granularity", "{granularity}"),) + tuple(
        (f"<= {p:.0%}", f"{{cdf[{p:.2f}]:.2f}}") for p in points))


def _produce_fig04(ctx) -> list:
    sample = _fetch_survey(ctx)
    rows = []
    for gran in GRANULARITIES:
        values = sample.series("contiguity", gran)
        rows.append({
            "granularity": gran,
            "cdf": _cdf(values, CDF_POINTS),
            "without_any": sample.fraction_without_any(gran),
        })
    return rows


def _report_fig04(rows: list, config: dict) -> str:
    table = _cdf_table(CDF_POINTS, "Figure 4: CDF of servers vs contiguity "
                       "(fraction of free memory in free blocks)")
    without = _without(rows)
    return table(rows, config) + (
        f"\n\nServers with zero free 2MB blocks:  "
        f"{without['2MB']:.0%} (paper: 23%)"
        f"\nServers with zero free 32MB blocks: "
        f"{without['32MB']:.0%} (paper: 59%)"
        f"\nServers with zero free 1GB blocks:  "
        f"{without['1GB']:.0%} (paper: ~100%)"
    )


def _produce_fig05(ctx) -> list:
    from ..fleet import median

    sample = _fetch_survey(ctx)
    rows = []
    for gran in GRANULARITIES:
        values = sample.series("unmovable", gran)
        rows.append({"granularity": gran,
                     "cdf": _cdf(values, FIG05_CDF_POINTS),
                     "median": median(values)})
    return rows


def _report_fig05(rows: list, config: dict) -> str:
    table = _cdf_table(FIG05_CDF_POINTS, "Figure 5: CDF of servers vs "
                       "fraction of blocks containing unmovable pages")
    med = _median(rows)
    return table(rows, config) + (
        f"\n\nMedian unmovable 2MB blocks:  {med['2MB']:.0%} (paper: 34%)"
        f"\nMedian unmovable 1GB regions: {med['1GB']:.0%} (paper: ~100%)"
    )


def _produce_fig06(ctx) -> list:
    sample = _fetch_survey(ctx)
    breakdown = sample.source_breakdown()
    return [{"source": src.name.lower(), "fraction": fraction}
            for src, fraction in sorted(
                breakdown.items(),
                key=lambda kv: (-kv[1], kv[0].name))]


def _paper_share(row: dict) -> str:
    """Fig. 6's paper share of *row*'s source, or ``(other)``."""
    from ..kalloc import SOURCE_MIX_META

    if row["source"] not in ("networking", "slab", "filesystem",
                             "pagetable"):
        return "(other)"
    return f"{getattr(SOURCE_MIX_META, row['source']):.1%}"


def _produce_s24(ctx) -> list:
    sample = _fetch_survey(ctx)
    # First, so a fleet too small to correlate is one ConfigurationError
    # before min() meets an empty list.
    correlation = sample.uptime_correlation()
    uptimes = [scan.uptime_steps for scan in sample.scans]
    return [{"servers": len(sample.scans), "uptime_min": min(uptimes),
             "uptime_max": max(uptimes), "correlation": correlation}]


def _report_s24(rows: list, config: dict) -> str:
    from ..analysis import format_table

    row = rows[0]
    return format_table(
        ["Metric", "Value", "Paper"],
        [
            ("servers sampled", row["servers"], "tens of thousands"),
            ("uptime range (steps)",
             f"{row['uptime_min']}-{row['uptime_max']}", "hours to weeks"),
            ("Pearson(uptime, free 2MB blocks)",
             f"{row['correlation']:+.3f}", "0.00286"),
        ],
        title="Section 2.4: uptime vs contiguity correlation",
    )


#: Fleet-survey scale, chosen when the figures were first recorded:
#: 24 x 512 MiB servers, uptimes past the fragmentation saturation
#: point, base seed 11 — so cached results line up with the recorded
#: EXPERIMENTS.md numbers.
_SURVEY_DEFAULTS = {
    "n_servers": 24,
    "mem_mib": 512,
    "min_uptime_steps": 1100,
    "max_uptime_steps": 1600,
}

FLEET_SURVEY = register(ExperimentSpec(
    name="fleet-survey",
    description="Shared steady-state fleet scan behind Figs. 4-6 and "
                "the §2.4 uptime study",
    producer=_produce_fleet_survey,
    defaults=_SURVEY_DEFAULTS,
    seed=11,
    figure="Figs. 4-6, §2.4",
    checkpoints=True,
))


def _survey_figure(name: str, description: str, figure: str,
                   producer, postprocess, claims) -> ExperimentSpec:
    """Register a figure over ``fleet-survey``: it takes the survey's
    scale as its parameters and the survey's seed as its own, and
    checkpoints through the survey it fetches."""
    return register(ExperimentSpec(
        name=name,
        description=description,
        producer=producer,
        defaults={"n_servers": _SURVEY_DEFAULTS["n_servers"],
                  "mem_mib": _SURVEY_DEFAULTS["mem_mib"]},
        seed=FLEET_SURVEY.seed,
        figure=figure,
        postprocess=postprocess,
        claims=claims,
        checkpoints=True,
    ))


def _without(rows: list) -> dict:
    return _col(rows, "granularity", "without_any")


def _median(rows: list) -> dict:
    return _col(rows, "granularity", "median")


def _source(rows: list) -> dict:
    return _col(rows, "source", "fraction")


def _heap_error(rows: list) -> dict:
    """Each kernel heap's measured share minus the paper's."""
    from ..kalloc import SOURCE_MIX_META

    return {source: _source(rows).get(source, 0.0)
            - getattr(SOURCE_MIX_META, source)
            for source in ("slab", "filesystem", "pagetable")}


_survey_figure(
    "fig04-contiguity-cdf", "CDF of free-memory contiguity across the fleet",
    "Fig. 4", _produce_fig04, _report_fig04, claims=(
        Ordered("harder-with-granularity", "servers without a free block: "
                "2MB 23%, 32MB 59%, 1GB ~100%",
                lambda rows: [_without(rows)[gran]
                              for gran in ("2MB", "32MB", "1GB")], "<="),
        Band("no-free-2mb", "23% of servers lack a free 2MB block",
             lambda rows: _without(rows)["2MB"], lo=0.05),
        Band("no-free-1gb", "dynamic 1GB allocation is practically "
             "impossible", lambda rows: _without(rows)["1GB"], lo=0.9)))
_survey_figure(
    "fig05-unmovable-cdf",
    "CDF of blocks holding unmovable pages across the fleet",
    "Fig. 5", _produce_fig05, _report_fig05, claims=(
        Ordered("amplification-grows", "a 7.6% page-level share, "
                "amplified at every coarser granularity",
                lambda rows: [_median(rows)[gran] for gran in GRANULARITIES],
                "<="),
        Band("median-2mb", "median 34% of 2MB blocks",
             lambda rows: _median(rows)["2MB"], 0.1, 0.7),
        Band("median-1gb", "~100% of 1GB regions",
             lambda rows: _median(rows)["1GB"], lo=0.9)))
_survey_figure(
    "fig06-sources", "Sources of unmovable allocations (networking-dominated)",
    "Fig. 6", _produce_fig06, Table(
        "Figure 6: sources of unmovable allocations",
        (("Source", "{source}"), ("Measured", "{fraction:.1%}"),
         ("Paper", _paper_share))),
    claims=(
        Band("networking-dominates", "networking >73%",
             lambda rows: _source(rows)["networking"], lo=0.73),
        Ordered("slab-over-pagetables", "slab 12% above page tables ~4%",
                lambda rows: [_source(rows).get("pagetable", 0),
                              _source(rows).get("slab", 0)]),
        Band("heaps-near-paper", "slab 12%, filesystems ~7%, page tables "
             "~4%", _heap_error, -0.08, 0.08)))
_survey_figure(
    "s24-uptime-corr", "Correlation of server uptime with free 2MB blocks",
    "§2.4", _produce_s24, _report_s24, claims=(
        Band("no-correlation", "Pearson 0.00286 fleet-wide (0.16 for "
             "young servers)", lambda rows: rows[0]["correlation"],
             -0.35, 0.35),))
