"""Built-in experiment specs: the paper's fleet-survey figures.

``fleet-survey`` is the shared steady-state campaign behind Figs. 4-6
and §2.4 — exactly the run the paper derives several figures from.  The
figure specs (``fig04-contiguity-cdf``, ``fig06-sources``) fetch it
through the content-addressed cache, so running either figure pays for
the survey once and every overlapping figure afterwards is a pure cache
hit; the remaining ``bench_*.py`` scripts migrate here incrementally
(these two are the reference migrations).

Producers return canonical-JSON-safe rows only (scan snapshots, plain
dicts of floats); rendering to the figure tables happens in
``postprocess``, which is never cached.
"""

from __future__ import annotations

from .grid import axes_from_grid
from .spec import ExperimentContext, ExperimentSpec, register

#: The scan-report granularities every figure iterates.
GRANULARITIES = ("2MB", "4MB", "32MB", "1GB")

#: Fig. 4 CDF evaluation points (fraction of free memory in free blocks).
CDF_POINTS = (0.0, 0.05, 0.10, 0.20, 0.30, 0.50, 0.75, 1.0)


def _produce_fleet_survey(ctx: ExperimentContext) -> list:
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


def _fetch_survey(ctx: ExperimentContext):
    """The figure specs' shared dependency: the fleet survey rows for
    this figure's (n_servers, mem_mib) at this run's seed, rebuilt into
    a :class:`~repro.fleet.FleetSample`."""
    from ..fleet import FleetSample

    rows = ctx.fetch("fleet-survey", overrides={
        "n_servers": ctx.params["n_servers"],
        "mem_mib": ctx.params["mem_mib"],
    })
    return FleetSample.from_snapshots(rows)


def _produce_fig04(ctx: ExperimentContext) -> list:
    sample = _fetch_survey(ctx)
    rows = []
    for gran in GRANULARITIES:
        values = sample.series("contiguity", gran)
        rows.append({
            "granularity": gran,
            "cdf": {
                f"{point:.2f}":
                    (sum(1 for v in values if v <= point) / len(values)
                     if values else 0.0)
                for point in CDF_POINTS
            },
            "without_any": sample.fraction_without_any(gran),
        })
    return rows


def _report_fig04(rows: list, config: dict) -> str:
    from ..analysis import format_table

    table = format_table(
        ["Granularity"] + [f"<= {p:.0%}" for p in CDF_POINTS],
        [[row["granularity"]]
         + [f"{row['cdf'][f'{p:.2f}']:.2f}" for p in CDF_POINTS]
         for row in rows],
        title=("Figure 4: CDF of servers vs contiguity "
               "(fraction of free memory in free blocks)"),
    )
    without = {row["granularity"]: row["without_any"] for row in rows}
    return table + (
        f"\n\nServers with zero free 2MB blocks:  "
        f"{without['2MB']:.0%} (paper: 23%)"
        f"\nServers with zero free 32MB blocks: "
        f"{without['32MB']:.0%} (paper: 59%)"
        f"\nServers with zero free 1GB blocks:  "
        f"{without['1GB']:.0%} (paper: ~100%)"
    )


def _produce_fig06(ctx: ExperimentContext) -> list:
    sample = _fetch_survey(ctx)
    breakdown = sample.source_breakdown()
    return [{"source": src.name.lower(), "fraction": fraction}
            for src, fraction in sorted(
                breakdown.items(),
                key=lambda kv: (-kv[1], kv[0].name))]


def _report_fig06(rows: list, config: dict) -> str:
    from ..analysis import format_table, percent
    from ..kalloc import SOURCE_MIX_META

    paper = {
        "networking": SOURCE_MIX_META.networking,
        "slab": SOURCE_MIX_META.slab,
        "filesystem": SOURCE_MIX_META.filesystem,
        "pagetable": SOURCE_MIX_META.pagetable,
    }
    return format_table(
        ["Source", "Measured", "Paper"],
        [(row["source"], percent(row["fraction"]),
          percent(paper[row["source"]]) if row["source"] in paper
          else "(other)")
         for row in rows],
        title="Figure 6: sources of unmovable allocations",
    )


#: Fleet-survey scale mirrors ``benchmarks/common.py`` historically:
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
    axes=axes_from_grid({"n_servers": (6, 12, 24)}),
    seed=11,
    figure="Figs. 4-6, §2.4",
))

FIG04 = register(ExperimentSpec(
    name="fig04-contiguity-cdf",
    description="CDF of free-memory contiguity across the fleet",
    producer=_produce_fig04,
    defaults={"n_servers": _SURVEY_DEFAULTS["n_servers"],
              "mem_mib": _SURVEY_DEFAULTS["mem_mib"]},
    axes=axes_from_grid({"n_servers": (6, 12, 24)}),
    seed=11,
    figure="Fig. 4",
    postprocess=_report_fig04,
))

FIG06 = register(ExperimentSpec(
    name="fig06-sources",
    description="Sources of unmovable allocations (networking-dominated)",
    producer=_produce_fig06,
    defaults={"n_servers": _SURVEY_DEFAULTS["n_servers"],
              "mem_mib": _SURVEY_DEFAULTS["mem_mib"]},
    axes=axes_from_grid({"n_servers": (6, 12, 24)}),
    seed=11,
    figure="Fig. 6",
    postprocess=_report_fig06,
))


def _produce_tail_latency(ctx: ExperimentContext) -> list:
    """One open-loop burst per cell; rows carry the cell's knobs plus
    per-class exact percentiles, so sweep outputs are self-describing."""
    from ..workloads.tracegen import LoadgenConfig, run_loadgen

    p = ctx.params
    result = run_loadgen(
        LoadgenConfig(
            shape=p["shape"],
            rate_rps=p["rate_krps"] * 1000.0,
            duration_s=p["duration_ms"] / 1000.0,
            app=p["app"],
            design=p["design"],
            migrations_per_second=p["migration_rate"],
            buffer_pages=p["buffer_pages"],
            seed=ctx.seed,
        ),
        **ctx.checkpointing)
    cell = {"shape": p["shape"], "app": p["app"], "design": p["design"],
            "rate_krps": p["rate_krps"],
            "windows": result.windows_seen,
            "achieved_rps": round(result.achieved_rps, 3)}
    return [{**cell, **row} for row in result.rows()]


def _report_tail_latency(rows: list, config: dict) -> str:
    from ..analysis import format_table

    header = (f"shape={config['shape']} app={config['app']} "
              f"design={config['design']} "
              f"rate={config['rate_krps']:g} krps "
              f"migrations={config['migration_rate']:g}/s")
    table = format_table(
        ["Class", "Requests", "p50 (µs)", "p99 (µs)", "p999 (µs)",
         "max (µs)"],
        [(row["class"], str(row["requests"]), f"{row['p50_us']:.3f}",
          f"{row['p99_us']:.3f}", f"{row['p999_us']:.3f}",
          f"{row['max_us']:.3f}")
         for row in rows],
        title="Tail latency under migration interference (§5.3 open-loop)",
    )
    windows = rows[0]["windows"] if rows else 0
    return (f"{header}\n{table}\n\n"
            f"Migration windows during the burst: {windows}; "
            "'migration' rows are requests whose lifetime overlapped "
            "a window, 'quiet' the rest.")


TAIL_LATENCY = register(ExperimentSpec(
    name="tail-latency-interference",
    description="Open-loop p50/p99/p999 request latency during vs "
                "outside migration windows (Fig. 13 with real queueing)",
    producer=_produce_tail_latency,
    defaults={
        "shape": "azure-faas",
        "app": "nginx",
        "design": "noncacheable",
        "rate_krps": 2000,
        "duration_ms": 1.0,
        "migration_rate": 12_000.0,
        # Small enough that the migrating page is a meaningful slice of
        # the working set — the regime where §5.3's design ordering
        # (noncacheable > cacheable ≈ none at p99) is robust to seed.
        "buffer_pages": 8,
    },
    axes=axes_from_grid({
        "design": ("noncacheable", "cacheable", "none"),
        "rate_krps": (1000, 2000),
        "app": ("nginx", "memcached"),
    }),
    seed=17,
    figure="Fig. 13 / §5.3",
    postprocess=_report_tail_latency,
))


def _produce_workload_steady(ctx: ExperimentContext) -> list:
    """One steady-state workload run per cell (the scenario library's
    churn/thrash/aging base): a single snapshot row carrying coverage,
    fragmentation, and the full vmstat counter set."""
    from ..units import MiB
    from ..workloads import WorkloadConfig, run_workload

    p = ctx.params
    result = run_workload(
        WorkloadConfig(
            service=p["service"],
            kernel=p["kernel"],
            mem_bytes=MiB(p["mem_mib"]),
            steps=p["steps"],
            seed=ctx.seed,
        ),
        **ctx.checkpointing)
    return [result.snapshot()]


def _report_workload_steady(rows: list, config: dict) -> str:
    from ..analysis import format_table, percent

    return format_table(
        ["Service", "Kernel", "Steps", "THP 2M", "1G", "Unmovable",
         "Free frames"],
        [(row["service"], row["kernel"], str(row["steps"]),
          percent(row["huge_coverage"]["2m"]),
          percent(row["huge_coverage"]["1g"]),
          percent(row["unmovable_fraction"]),
          f"{row['free_frames']:,}")
         for row in rows],
        title="Steady-state fragmentation after churn "
              "(Mansi & Swift-style aging)",
    )


WORKLOAD_STEADY = register(ExperimentSpec(
    name="workload-steady",
    description="Single-server steady-state churn: coverage, "
                "fragmentation, and vmstat after N workload steps",
    producer=_produce_workload_steady,
    defaults={
        "service": "cache-b",
        "kernel": "linux",
        "mem_mib": 128,
        "steps": 200,
    },
    axes=axes_from_grid({"kernel": ("linux", "contiguitas")}),
    seed=13,
    figure="§2.4 churn / scenario library",
    postprocess=_report_workload_steady,
))
