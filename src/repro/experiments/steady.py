"""The steady-state family: ``workload-steady``, the scenario library's
single-server churn base, and ``steady-profile``, the steady-state
service profiling behind Figs. 11, 12 and §5.2, with the three figures
that fetch it through the cache."""

from __future__ import annotations

from .claims import Band, Ordered
from .common import _boot, _bounded_cache, _col
from .spec import ExperimentContext, ExperimentSpec, register

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
    seed=13,
    figure="§2.4 churn / scenario library",
    postprocess=_report_workload_steady,
))


#: ``steady-profile``'s machine: 1 GiB, scaled down from the paper's
#: 64 GiB hosts (every policy scales with memory size), run for 1,200
#: workload steps.
_STEADY_MEM_MIB = 1024
_STEADY_STEPS = 1200


def _produce_steady_profile(ctx: ExperimentContext) -> list:
    """Each production service run to steady state on each kernel, one
    row per run with what Figs. 11, 12 and §5.2 read.  The workload is
    stepped here, as a fleet server steps it, because §5.2 is a time
    average: the unmovable region's internal fragmentation swings with
    traffic (0 at peaks, max in troughs), so it is sampled every 25
    steps over the final diurnal period."""
    from ..analysis import (
        movable_potential,
        unmovable_block_fraction,
        unmovable_region_internal_frag,
    )
    from ..units import PAGEBLOCK_FRAMES
    from ..workloads import Workload
    from ..workloads.services import CACHE_A, CACHE_B, CI, WEB

    rows = []
    for service in (CI, WEB, CACHE_A, CACHE_B):
        for kernel_name in ("linux", "contiguitas"):
            kernel = _boot(kernel_name, _STEADY_MEM_MIB)
            mem = kernel.mem
            workload = Workload(kernel, _bounded_cache(service),
                                seed=ctx.seed)
            workload.start()
            samples = []
            for step in range(_STEADY_STEPS):
                workload.step()
                if (kernel_name == "contiguitas"
                        and step > _STEADY_STEPS - 500 and step % 25 == 0):
                    samples.append(unmovable_region_internal_frag(
                        mem, kernel.layout.boundary_pfn))
            row = {
                "service": service.name,
                "kernel": kernel_name,
                "unmovable_2m": unmovable_block_fraction(
                    mem, PAGEBLOCK_FRAMES),
                # "1G*" is memory/64: the scale-equivalent of 1 GiB on
                # the paper's 64 GiB hosts.
                "potential": {
                    label: movable_potential(mem, frames)
                    for label, frames in (
                        ("2M", PAGEBLOCK_FRAMES),
                        ("32M", 16 * PAGEBLOCK_FRAMES),
                        ("1G*", mem.nframes // 64))},
            }
            if kernel_name == "contiguitas":
                row.update(region_blocks=kernel.layout.unmovable_blocks,
                           npageblocks=mem.npageblocks,
                           internal_frag=samples)
            rows.append(row)
    return rows


STEADY_PROFILE = register(ExperimentSpec(
    name="steady-profile",
    description="Shared steady-state runs (CI/Web/CacheA/CacheB x "
                "Linux/Contiguitas) behind Figs. 11, 12 and §5.2",
    producer=_produce_steady_profile,
    seed=42,
    figure="Figs. 11-12, §5.2",
))


def _produce_fig11(ctx: ExperimentContext) -> list:
    """One row per service: its unmovable 2 MiB block share per kernel."""
    rows = {}
    for run in ctx.fetch("steady-profile"):
        row = rows.setdefault(run["service"], {"service": run["service"]})
        row[run["kernel"]] = run["unmovable_2m"]
    return list(rows.values())


def _report_fig11(rows: list, config: dict) -> str:
    from ..analysis import format_table, percent

    avg = {kernel: sum(row[kernel] for row in rows) / len(rows)
           for kernel in ("linux", "contiguitas")}
    return format_table(
        ["Workload", "Linux", "Contiguitas"],
        [(row["service"], percent(row["linux"]),
          percent(row["contiguitas"])) for row in rows]
        + [("average", percent(avg["linux"]),
            percent(avg["contiguitas"]))],
        title=("Figure 11: unmovable 2MB pages at steady state "
               "(paper: Linux 19-42% avg 31%, Contiguitas <=9% avg 7%)"),
    )


def _produce_fig12(ctx: ExperimentContext) -> list:
    return [{"service": run["service"], "kernel": run["kernel"],
             **run["potential"]}
            for run in ctx.fetch("steady-profile")]


def _report_fig12(rows: list, config: dict) -> str:
    from ..analysis import format_table, percent

    return format_table(
        ["Workload", "Kernel", "2M", "32M", "1G*"],
        [(row["service"], row["kernel"])
         + tuple(percent(row[g], 0) for g in ("2M", "32M", "1G*"))
         for row in rows],
        title=("Figure 12: potential contiguity after perfect compaction "
               "(% of total memory; 1G* = memory/64, the scale-equivalent "
               "of 1GiB on the paper's 64GiB hosts)"),
    )


def _produce_s52(ctx: ExperimentContext) -> list:
    """Per service on Contiguitas: the region's size and its internal
    fragmentation, time-averaged over the final diurnal period."""
    return [{"service": run["service"],
             "frag": sum(run["internal_frag"]) / len(run["internal_frag"]),
             "frag_peak": max(run["internal_frag"]),
             "region_blocks": run["region_blocks"],
             "region_share": run["region_blocks"] / run["npageblocks"]}
            for run in ctx.fetch("steady-profile")
            if run["kernel"] == "contiguitas"]


def _report_s52(rows: list, config: dict) -> str:
    from ..analysis import format_table, percent

    avg = sum(row["frag"] for row in rows) / len(rows)
    peak = max(row["frag_peak"] for row in rows)
    return format_table(
        ["Workload", "Unmovable region", "Share of memory",
         "Free in occupied 2MB blocks (avg)", "(trough peak)"],
        [(row["service"], f"{row['region_blocks']} blocks",
          percent(row["region_share"], 0), percent(row["frag"], 0),
          percent(row["frag_peak"], 0)) for row in rows]
        + [("average", "", "", percent(avg, 0), percent(peak, 0))],
        title=("Section 5.2: unmovable-region internal fragmentation "
               "(paper: ~22% free in a typical block)"),
    )


def _steady_figure(name: str, description: str, figure: str,
                   producer, postprocess, claims) -> ExperimentSpec:
    """Register a figure over ``steady-profile``, seeded like it: a
    figure fetches its dependency at its own seed."""
    return register(ExperimentSpec(
        name=name,
        description=description,
        producer=producer,
        seed=STEADY_PROFILE.seed,
        figure=figure,
        postprocess=postprocess,
        claims=claims,
    ))


def _average(rows: list, field: str) -> float:
    return sum(row[field] for row in rows) / len(rows)


def _potential(rows: list, kernel: str, gran: str) -> dict:
    """``{service: potential}`` of *kernel* at granularity *gran*."""
    return {row["service"]: row[gran] for row in rows
            if row["kernel"] == kernel}


def _potential_pairs(rows: list, grans: tuple) -> dict:
    """``{"<service> <gran>": [linux, contiguitas]}``."""
    return {f"{service} {gran}": [linux, _potential(rows, "contiguitas",
                                                    gran)[service]]
            for gran in grans
            for service, linux in _potential(rows, "linux", gran).items()}


_steady_figure(
    "fig11-unmovable",
    "Unmovable 2MB blocks at steady state, Linux vs Contiguitas",
    "Fig. 11", _produce_fig11, _report_fig11, claims=(
        Ordered("contiguitas-confines", "Contiguitas below Linux for "
                "every workload", lambda rows: {
                    row["service"]: [row["contiguitas"], row["linux"]]
                    for row in rows}),
        Band("contiguitas-max", "Contiguitas <=9%",
             lambda rows: _col(rows, "service", "contiguitas"), hi=0.17),
        Band("linux-range", "Linux 19-42%",
             lambda rows: _col(rows, "service", "linux"), 0.19, 0.42),
        Band("linux-average", "Linux average 31%",
             lambda rows: _average(rows, "linux"), 0.19, 0.42),
        Band("contiguitas-cut", "average 7% against Linux's 31%",
             lambda rows: _average(rows, "contiguitas")
             / _average(rows, "linux"), hi=0.5)))
_steady_figure(
    "fig12-potential", "Potential contiguity after perfect compaction",
    "Fig. 12", _produce_fig12, _report_fig12, claims=(
        Ordered("contiguitas-keeps-more", "Contiguitas recovers at least "
                "Linux's potential", lambda rows: _potential_pairs(
                    rows, ("2M", "32M", "1G*")), "<="),
        Ordered("linux-collapses", "Linux's potential collapses as "
                "granularity grows", lambda rows: {
                    service: [linux, _potential(rows, "linux", "2M")[service]]
                    for service, linux
                    in _potential(rows, "linux", "32M").items()}, "<="),
        Ordered("linux-below-at-1g", "Linux's potential reaches zero at "
                "1GB", lambda rows: _potential_pairs(rows, ("1G*",))),
        Band("contiguitas-32m", "Contiguitas's whole movable region is "
             "recoverable", lambda rows: _potential(rows, "contiguitas",
                                                    "32M"), lo=0.5),
        Band("contiguitas-1g", "recoverable at 1GB too",
             lambda rows: _potential(rows, "contiguitas", "1G*"), lo=0.4)))
_steady_figure(
    "s52-internal-frag",
    "Internal fragmentation of Contiguitas's unmovable region",
    "§5.2", _produce_s52, _report_s52, claims=(
        Band("average-free", "~22% free in a typical occupied 2MB block",
             lambda rows: _average(rows, "frag"), 0.01, 0.6),
        Band("trough-peak", "free space swings with traffic, peaking in "
             "troughs", lambda rows: max(row["frag_peak"] for row in rows),
             lo=0.03),
        Band("region-small", "the region stays a small share of memory",
             lambda rows: _col(rows, "service", "region_share"), hi=0.3)))
