"""The analytic and single-machine family: Figs. 2, 3 and 10, the
Contiguitas-HW metadata-table cost (§5.3) and Algorithm 1's resizing."""

from __future__ import annotations

from .claims import Band, Ordered
from .common import _boot, _churn, _row
from .spec import ExperimentContext, ExperimentSpec, register

def _produce_fig02(ctx: ExperimentContext) -> list:
    from ..perfmodel import generation_trends

    return generation_trends()


def _report_fig02(rows: list, config: dict) -> str:
    from ..analysis import format_table, percent

    return format_table(
        ["Generation", "Rel. memory", "TLB cov 4K", "TLB cov 2M",
         "TLB cov 1G"],
        [(row["generation"], f'{row["relative_capacity"]:.1f}x',
          percent(row["coverage_4k"], 3), percent(row["coverage_2m"], 2),
          percent(row["coverage_1g"], 0))
         for row in rows],
        title="Figure 2: memory capacity and TLB coverage by generation",
    )


FIG02 = register(ExperimentSpec(
    name="fig02-hwgen",
    description="Memory capacity vs TLB coverage across five hardware "
                "generations",
    producer=_produce_fig02,
    figure="Fig. 2",
    postprocess=_report_fig02,
    claims=(
        Band("memory-growth", "~8x memory from Gen1 to Gen5",
             lambda rows: rows[-1]["relative_capacity"], lo=7.5),
        Band("1g-covers-gen5", "1GB coverage exceeds Gen5 memory",
             lambda rows: rows[-1]["coverage_1g"], 1.0, 1.0),
    ),
))


def _produce_fig03(ctx: ExperimentContext) -> list:
    """Walk cycles per (service, page size); 1 GiB pages are
    characterised for Web only, as in the paper."""
    from ..perfmodel import MIX_1G, MIX_2M, MIX_4K, walk_cycles
    from ..workloads import WALK_CHARACTERISATION

    rows = []
    for spec in WALK_CHARACTERISATION:
        mixes = [("4KB", MIX_4K), ("2MB", MIX_2M)]
        if spec.name == "Web":
            mixes.append(("1GB", MIX_1G))
        for label, mix in mixes:
            r = walk_cycles(spec, mix,
                            n_instructions=ctx.params["instructions"],
                            seed=ctx.seed)
            rows.append({"service": spec.name, "pages": label,
                         "data_pct": r.data_pct, "instr_pct": r.instr_pct,
                         "total_pct": r.total_pct})
    return rows


def _report_fig03(rows: list, config: dict) -> str:
    from ..analysis import format_table

    return format_table(
        ["Service", "Pages", "Data walk %", "Instr walk %", "Total %"],
        [(row["service"], row["pages"], f"{row['data_pct']:.1f}%",
          f"{row['instr_pct']:.1f}%", f"{row['total_pct']:.1f}%")
         for row in rows],
        title="Figure 3: page-walk cycles as % of total cycles",
    )


def _walk(rows: list, service: str, pages: str) -> dict:
    return _row(rows, service=service, pages=pages)


FIG03 = register(ExperimentSpec(
    name="fig03-walk-cycles",
    description="Cycles lost to page walks per service and page size",
    producer=_produce_fig03,
    defaults={"instructions": 150_000},
    seed=3,
    figure="Fig. 3",
    postprocess=_report_fig03,
    claims=(
        Band("web-4k-total", "~20% of Web's cycles walk at 4KB",
             lambda rows: _walk(rows, "Web", "4KB")["total_pct"], 10.0, 35.0),
        Band("web-2m-instr", "2MB halves Web's instruction walks (6% -> 3%)",
             lambda rows: _walk(rows, "Web", "2MB")["instr_pct"]
             / _walk(rows, "Web", "4KB")["instr_pct"], hi=0.7),
        Ordered("web-1g-data", "1GB's data-walk gain exceeds 2MB's for Web",
                lambda rows: [_walk(rows, "Web", pages)["data_pct"]
                              for pages in ("1GB", "2MB")]),
        Ordered("2m-beats-4k", "2MB pages cut every service's walks",
                lambda rows: {row["service"]: [
                    _walk(rows, row["service"], pages)["total_pct"]
                    for pages in ("2MB", "4KB")] for row in rows}),
    ),
))


#: Fig. 10's machine per service (Web needs room for 1 GiB
#: reservations; the caches run smaller and faster) and the
#: deploy-restart cycles (code pushes) before the measured deployment
#: on the partially fragmented machine.
_FIG10_MACHINES = {"Web": (2048 + 256, 350), "CacheA": (256, 500),
                   "CacheB": (256, 500)}


def _produce_fig10(ctx: ExperimentContext) -> list:
    """The paper's method: pre-condition the machine, deploy the
    service, measure the huge-page coverage it achieved, then feed that
    coverage to the walk-cycle model for relative throughput.  The seed
    drives the deployment; the walk model keeps its own (9)."""
    from ..perfmodel import evaluate_configuration
    from ..workloads import fragment_fully, fragment_partially
    from ..workloads.services import CACHE_A, CACHE_B, WEB

    rows = []
    for service in (WEB, CACHE_A, CACHE_B):
        mem_mib, warmup = _FIG10_MACHINES[service.name]
        for config in ("linux-full", "linux-partial", "contiguitas"):
            kernel = _boot("linux" if config.startswith("linux")
                           else "contiguitas", mem_mib)
            if config == "linux-partial":
                fragment_partially(kernel, service, steps=warmup)
            else:
                fragment_fully(kernel)
            coverage = _churn(kernel, service, ctx.seed, 100).huge_coverage()
            result = evaluate_configuration(
                service, coverage, config, n_instructions=120_000, seed=9)
            rows.append({"service": service.name, "config": config,
                         "coverage_2m": coverage["2m"],
                         "coverage_1g": coverage["1g"],
                         "walk_pct": result.walk.total_pct,
                         "relative_perf": result.relative_perf,
                         "perf_from_1g": result.perf_from_1g})
    return rows


def _report_fig10(rows: list, config: dict) -> str:
    from ..analysis import format_table, percent

    base = {row["service"]: row["relative_perf"] for row in rows
            if row["config"] == "linux-full"}
    return format_table(
        ["Service", "Config", "2M cov", "1G cov", "Walk %",
         "Perf vs Linux-Full", "1G share"],
        [(row["service"], row["config"], percent(row["coverage_2m"], 0),
          percent(row["coverage_1g"], 0), f"{row['walk_pct']:.1f}%",
          f"{row['relative_perf'] / base[row['service']]:.3f}",
          f"+{row['perf_from_1g']:.3f}" if row["perf_from_1g"] else "-")
         for row in rows],
        title="Figure 10: end-to-end performance (relative RPS)",
    )


def _speedup(rows: list, config: str, over: str) -> dict:
    """``{service: relative_perf(config) / relative_perf(over)}``."""
    perf = {(row["service"], row["config"]): row["relative_perf"]
            for row in rows}
    return {service: perf[service, config] / perf[service, over]
            for service in _FIG10_MACHINES}


FIG10 = register(ExperimentSpec(
    name="fig10-endtoend",
    description="Relative RPS of Web/CacheA/CacheB on fully and "
                "partially fragmented Linux vs Contiguitas",
    producer=_produce_fig10,
    seed=7,
    figure="Fig. 10",
    postprocess=_report_fig10,
    claims=(
        Band("over-full", "7-18% over fully fragmented Linux",
             lambda rows: _speedup(rows, "contiguitas", "linux-full"),
             1.03, 1.40),
        Band("over-partial", "2-9% over partially fragmented Linux",
             lambda rows: _speedup(rows, "contiguitas", "linux-partial"),
             1.003, 1.20),
        Band("partial-not-below-full", "partial fragmentation costs no "
             "more than full", lambda rows: _speedup(
                 rows, "linux-partial", "linux-full"), lo=0.98),
        Ordered("web-1g-placed", "Contiguitas places 1GB pages for Web "
                "(4GB placed)", lambda rows: [0.0, _row(
                    rows, service="Web",
                    config="contiguitas")["coverage_1g"]]),
        Band("web-1g-gain", "1GB pages add 7.5% to Web's win",
             lambda rows: _row(rows, service="Web", config="contiguitas")[
                 "perf_from_1g"], lo=0.02),
        Band("linux-no-1g", "Linux's 1GB allocation always fails",
             lambda rows: {config: _row(rows, service="Web", config=config)[
                 "coverage_1g"] for config in ("linux-full", "linux-partial")},
             0.0, 0.0),
    ),
))


def _produce_s53_hwcost(ctx: ExperimentContext) -> list:
    from ..analysis.hwcost import (
        MetadataTableCost,
        migrations_per_second_capacity,
    )

    cost = MetadataTableCost()
    return [{
        "area_mm2": cost.area_mm2(),
        "energy_nj": cost.energy_per_access_nj(),
        "leakage_mw": cost.leakage_mw(),
        "core_fraction": cost.fraction_of_core_area(),
        "capacity_1_entry": migrations_per_second_capacity(entries=1),
        "capacity_16_entries": migrations_per_second_capacity(entries=16),
    }]


def _report_s53_hwcost(rows: list, config: dict) -> str:
    from ..analysis import format_table

    vals = rows[0]
    return format_table(
        ["Metric", "Model", "Paper"],
        [
            ("area per slice (mm^2)", f"{vals['area_mm2']:.4f}", "0.0038"),
            ("energy per access (nJ)", f"{vals['energy_nj']:.4f}", "0.0017"),
            ("leakage (mW)", f"{vals['leakage_mw']:.2f}", "0.64"),
            ("fraction of core area", f"{vals['core_fraction']:.3%}",
             "0.014%"),
            ("migrations/s, 1 entry", f"{vals['capacity_1_entry']:,.0f}",
             ">> demand"),
            ("migrations/s, 16 entries",
             f"{vals['capacity_16_entries']:,.0f}", ">> demand"),
        ],
        title="Section 5.3: Contiguitas-HW metadata table cost (22nm)",
    )


#: How far (relative) the §5.3 table costs may sit from the paper's.
NEAR_PAPER_REL = 0.15


def _near(paper: float) -> tuple:
    """The band within :data:`NEAR_PAPER_REL` of the *paper* value."""
    return paper * (1 - NEAR_PAPER_REL), paper * (1 + NEAR_PAPER_REL)


def _one_entry_headroom(rows: list) -> float:
    """One entry's migration capacity over the Very High rate."""
    from ..workloads.interference import VERY_HIGH_RATE

    return rows[0]["capacity_1_entry"] / VERY_HIGH_RATE


S53_HWCOST = register(ExperimentSpec(
    name="s53-hwcost",
    description="Metadata-table area/energy/leakage (CACTI-like, 22nm) "
                "and migration capacity",
    producer=_produce_s53_hwcost,
    figure="§5.3",
    postprocess=_report_s53_hwcost,
    claims=(
        Band("area", "0.0038 mm^2 per slice",
             lambda rows: rows[0]["area_mm2"], *_near(0.0038)),
        Band("energy", "0.0017 nJ per access",
             lambda rows: rows[0]["energy_nj"], *_near(0.0017)),
        Band("leakage", "0.64 mW", lambda rows: rows[0]["leakage_mw"],
             *_near(0.64)),
        Band("core-share", "0.014% of core area",
             lambda rows: rows[0]["core_fraction"], hi=0.001),
        Band("one-entry-suffices", "one entry already sustains a very "
             "high migration rate", _one_entry_headroom, lo=10),
    ),
))


#: Algorithm 1's pressure scenarios: (P_unmov, P_mov, expectation).
_ALG1_SCENARIOS = (
    (0.0, 0.0, "shrink (idle)"),
    (20.0, 0.0, "expand (unmovable demand)"),
    (50.0, 0.0, "expand harder"),
    (0.0, 30.0, "shrink (movable demand)"),
    (50.0, 50.0, "no expand (both pressured)"),
)


def _produce_alg1(ctx: ExperimentContext) -> list:
    """The resizing algorithm two ways: the pure function over a grid of
    pressure inputs (one row each), and a live kernel driven through an
    unmovable-demand spike and its release (on every row) — the region
    must grow to absorb it and shrink back once the demand subsides."""
    from ..core import ResizeConfig, target_unmovable_frames
    from ..mm import AllocSource
    from ..mm import vmstat as ev

    kernel = _boot("contiguitas", 64)
    initial = kernel.layout.unmovable_blocks
    handles = [kernel.alloc_pages(0, source=AllocSource.NETWORKING)
               for _ in range(6 * 512)]
    peak = kernel.layout.unmovable_blocks
    for handle in handles:
        kernel.free_pages(handle)
    for _ in range(60):
        kernel.advance(200_000)
    spike = {"initial": initial, "peak": peak,
             "settled": kernel.layout.unmovable_blocks,
             "expands": kernel.stat[ev.REGION_EXPAND],
             "shrinks": kernel.stat[ev.REGION_SHRINK],
             "violations": kernel.confinement_violations()}
    mem = 100_000
    return [{"p_unmov": pu, "p_mov": pm, "mem_unmov": mem,
             "target": target_unmovable_frames(pu, pm, mem, ResizeConfig()),
             "expected": expected, **spike}
            for pu, pm, expected in _ALG1_SCENARIOS]


def _report_alg1(rows: list, config: dict) -> str:
    from ..analysis import format_table

    table = format_table(
        ["P_unmov", "P_mov", "Mem_unmov", "Target", "Delta", "Expected"],
        [(row["p_unmov"], row["p_mov"], row["mem_unmov"], row["target"],
          f"{(row['target'] - row['mem_unmov']) / row['mem_unmov']:+.1%}",
          row["expected"]) for row in rows],
        title="Algorithm 1: resizing targets per pressure scenario",
    )
    spike = rows[0]
    return table + (
        f"\n\nLive demand spike: region {spike['initial']} -> "
        f"{spike['peak']} -> {spike['settled']} pageblocks (expands "
        f"{spike['expands']}, shrinks {spike['shrinks']})"
    )


def _target(rows: list, p_unmov: float, p_mov: float) -> int:
    return _row(rows, p_unmov=p_unmov, p_mov=p_mov)["target"]


ALG1 = register(ExperimentSpec(
    name="alg1-resizing",
    description="Algorithm-1 resize targets per pressure scenario and a "
                "live demand spike",
    producer=_produce_alg1,
    figure="Alg. 1",
    postprocess=_report_alg1,
    claims=(
        Ordered("shrinks-without-unmovable-demand", "shrink when idle or "
                "under movable demand", lambda rows: {
                    f"P_mov={p_mov:g}": [_target(rows, 0.0, p_mov),
                                         rows[0]["mem_unmov"]]
                    for p_mov in (0.0, 30.0)}),
        Ordered("expands-with-unmovable-demand", "expand under unmovable "
                "demand, harder as it grows", lambda rows: [
                    rows[0]["mem_unmov"], _target(rows, 20.0, 0.0),
                    _target(rows, 50.0, 0.0)]),
        Ordered("both-pressured-no-expand", "no expansion when both kinds "
                "are pressured", lambda rows: [_target(rows, 50.0, 50.0),
                                               rows[0]["mem_unmov"]], "<="),
        Ordered("spike-absorbed-and-returned", "the region grows for a "
                "demand spike and gives memory back", lambda rows: {
                    "grows": [rows[0]["initial"], rows[0]["peak"]],
                    "returns": [rows[0]["settled"], rows[0]["peak"]]}),
        Band("spike-confined", "no unmovable page escapes the region",
             lambda rows: rows[0]["violations"], 0, 0),
    ),
))
