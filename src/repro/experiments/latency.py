"""The migration-latency family: the §5.3 open-loop burst
(``tail-latency-interference``), Fig. 13's page-unavailable cycles and
§5.3's throughput interference."""

from __future__ import annotations

from .claims import Band, Ordered
from .spec import ExperimentContext, ExperimentSpec, register

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
    seed=17,
    figure="Fig. 13 / §5.3",
    postprocess=_report_tail_latency,
))


def _produce_fig13(ctx: ExperimentContext) -> list:
    """One row per victim-TLB count.  Linux-Real is the analytic cost
    model calibrated against measurement, Linux-Sim the event-driven
    protocol model; the figure-wide scalars ride on every row."""
    from ..mm import MigrationCostModel
    from ..sim import (
        DEFAULT_PARAMS,
        DeviceTlb,
        Iommu,
        page_copy_cycles,
        simulate_contiguitas_migration,
        simulate_linux_migration,
    )

    params = DEFAULT_PARAMS
    analytic = MigrationCostModel()
    rows = []
    for victims in range(1, params.cores):
        cont = simulate_contiguitas_migration(params, victims)
        rows.append({
            "victims": victims,
            "linux_real": analytic.downtime_cycles(victims),
            "linux_sim": simulate_linux_migration(
                params, victims).unavailable_cycles,
            "contiguitas": cont.unavailable_cycles,
        })
    # Device TLBs (IOMMU/NIC) follow the same protocol on the baseline
    # (§2.1): a synchronous queued invalidation extends the downtime,
    # while Contiguitas invalidates them lazily from any core.
    iommu = Iommu()
    iommu.attach_device(DeviceTlb(label="nic-tlb"))
    figure = {
        "copy_cycles": page_copy_cycles(params),
        "device_tlb_cycles": iommu.synchronous_invalidate_cycles(),
        "invlpg_cycles": params.invlpg_cycles,
        "copy_us": params.cycles_to_us(cont.copy_done_at - cont.start),
    }
    return [{**row, **figure} for row in rows]


def _report_fig13(rows: list, config: dict) -> str:
    from ..analysis import format_table

    table = format_table(
        ["Victim TLBs", "Linux-Real (cycles)", "Linux-Sim (cycles)",
         "Sim vs Real", "Contiguitas (cycles)"],
        [(row["victims"], row["linux_real"], row["linux_sim"],
          f"{(row['linux_sim'] - row['linux_real']) / row['linux_real']:+.1%}",
          row["contiguitas"])
         for row in rows],
        title="Figure 13: page-unavailable cycles during migration",
    )
    figure = rows[0]
    return table + (
        f"\n\nPage copy cost: {figure['copy_cycles']} cycles "
        f"(paper: ~1300)"
        f"\nWith a NIC device TLB, baseline downtime grows by "
        f"{figure['device_tlb_cycles']} more cycles per page; "
        f"Contiguitas stays at {figure['invlpg_cycles']}."
        f"\nContiguitas-HW 4KB migration copy time: "
        f"{figure['copy_us']:.1f}us (paper: ~2us), page never blocked"
    )


FIG13 = register(ExperimentSpec(
    name="fig13-unavailable",
    description="Page-unavailable cycles during migration vs victim "
                "TLBs: Linux linear, Contiguitas constant",
    producer=_produce_fig13,
    figure="Fig. 13",
    postprocess=_report_fig13,
    claims=(
        Ordered("linux-linear", "Linux grows linearly with victim TLBs",
                lambda rows: [b["linux_sim"] - a["linux_sim"]
                              for a, b in zip(rows, rows[1:])], "=="),
        Ordered("contiguitas-constant", "Contiguitas constant: one local "
                "invalidation", lambda rows: [row["contiguitas"]
                                              for row in rows]
                + [rows[0]["invlpg_cycles"]], "=="),
        Band("linux-right-edge", "~8000 cycles at the right edge",
             lambda rows: rows[-1]["linux_sim"], 7000, 9500),
        Band("sim-vs-real", "Linux-Sim within -6%..+10% of Linux-Real",
             lambda rows: {row["victims"]: (row["linux_sim"]
                                            - row["linux_real"])
                           / row["linux_real"] for row in rows},
             -0.06, 0.10),
        Band("copy-cycles", "~1300 cycles per 4KB copy",
             lambda rows: rows[0]["copy_cycles"], 1100, 1500),
    ),
))


def _produce_s53_interference(ctx: ExperimentContext) -> list:
    """Throughput overhead per (app, rate, design) from the analytic
    model, the Very High rate cross-checked at instruction level on the
    simulated request loop, and memcached's huge-page upside once
    contiguity exists (on every row)."""
    from ..core.hwext import AccessMode
    from ..perfmodel import evaluate_configuration
    from ..workloads import (
        MEMCACHED,
        NGINX,
        REGULAR_RATE,
        VERY_HIGH_RATE,
        get_service,
        interference_overhead,
        relative_throughput_simulated,
    )

    modes = (AccessMode.NONCACHEABLE, AccessMode.CACHEABLE)
    rows = []
    for app in (NGINX, MEMCACHED):
        for rate_name, rate in (("regular", REGULAR_RATE),
                                ("very-high", VERY_HIGH_RATE)):
            for mode in modes:
                rows.append({
                    "app": app.name, "rate": rate_name,
                    "design": mode.value, "method": "analytic",
                    "overhead": interference_overhead(app, rate, mode)})
    for app in (NGINX, MEMCACHED):
        for mode in modes:
            rel = relative_throughput_simulated(
                app, VERY_HIGH_RATE, mode=mode, requests=1200,
                seed=ctx.seed)
            rows.append({"app": app.name, "rate": "very-high",
                         "design": mode.value, "method": "simulated",
                         "overhead": 1 - rel})
    gain = evaluate_configuration(
        get_service("cache-b"), {"1g": 0.0, "2m": 1.0, "4k": 0.0}, "thp",
        n_instructions=120_000, seed=ctx.seed).relative_perf
    return [{**row, "memcached_2m_gain": gain} for row in rows]


def _report_s53_interference(rows: list, config: dict) -> str:
    from ..analysis import format_table

    table = format_table(
        ["App", "Migration rate", "HW design", "Throughput overhead"],
        [(row["app"], row["rate"], row["design"],
          f"{row['overhead']:.3%}" if row["method"] == "analytic"
          else f"{row['overhead']:.4%} (simulated)")
         for row in rows],
        title=("Section 5.3: migration interference "
               "(paper: <=0.3% noncacheable at 1000/s, ~0 cacheable)"),
    )
    return table + (f"\n\nmemcached with 2MB pages: "
                    f"{rows[0]['memcached_2m_gain']:.3f}x (paper: ~1.07x)")


def _overhead(rows: list, rate: str, design: str,
              method: str = "analytic") -> dict:
    """``{app: overhead}`` at one (rate, design, method)."""
    return {row["app"]: row["overhead"] for row in rows
            if (row["rate"], row["design"], row["method"])
            == (rate, design, method)}


S53_INTERFERENCE = register(ExperimentSpec(
    name="s53-interference",
    description="NGINX/memcached throughput overhead under "
                "unmovable-page migration, per HW design and rate",
    producer=_produce_s53_interference,
    figure="§5.3",
    postprocess=_report_s53_interference,
    claims=(
        Band("regular-no-impact", "no impact at the Regular rate (100/s)",
             lambda rows: _overhead(rows, "regular", "noncacheable"),
             hi=0.001),
        Band("nginx-very-high", "0.2% for NGINX at 1000/s, noncacheable",
             lambda rows: _overhead(rows, "very-high",
                                    "noncacheable")["nginx"],
             0.0005, 0.005),
        Band("memcached-very-high", "0.3% for memcached at 1000/s, "
             "noncacheable", lambda rows: _overhead(
                 rows, "very-high", "noncacheable")["memcached"],
             0.0005, 0.006),
        Band("cacheable-no-impact", "~0 with the cacheable design",
             lambda rows: _overhead(rows, "very-high",
                                    "cacheable")["memcached"], hi=1e-4),
        Ordered("noncacheable-costs-more", "noncacheable above cacheable, "
                "analytic and simulated", lambda rows: {
                    f"{app} {method}": [_overhead(rows, "very-high", design,
                                                  method)[app]
                                        for design in ("cacheable",
                                                       "noncacheable")]
                    for app in ("nginx", "memcached")
                    for method in ("analytic", "simulated")}),
        Band("memcached-2m-gain", "~1.07x for memcached on 2MB pages",
             lambda rows: rows[0]["memcached_2m_gain"], 1.03, 1.12),
    ),
))
