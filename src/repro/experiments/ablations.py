"""The ablations: placement bias, the Contiguitas design choices,
per-CPU page caches and the Algorithm-1 coefficient search."""

from __future__ import annotations

from .claims import Band, Ordered
from .common import _boot, _bounded_cache, _churn, _col, _row
from .spec import ExperimentContext, ExperimentSpec, register

def _produce_placement(ctx: ExperimentContext) -> list:
    """One row per placement-bias setting.  A demand spike fills the
    region, then drains in *random* order — the region is now oversized
    with free frames everywhere.  A trickle of new long-lived
    allocations follows: with the bias they are steered away from the
    boundary; without it, LIFO reuse drops them onto the most recently
    freed (random) frames, blocking the coming shrink."""
    import random

    from ..core import PlacementPolicy
    from ..mm import AllocSource
    from ..mm import vmstat as ev

    rows = []
    for bias in (True, False):
        kernel = _boot("contiguitas", 64, initial_unmovable_fraction=0.5,
                       placement=PlacementPolicy(bias_enabled=bias))
        rng = random.Random(ctx.seed)
        spike = [kernel.alloc_pages(0, source=AllocSource.SLAB)
                 for _ in range(int(kernel.unmovable.nr_frames * 0.9))]
        rng.shuffle(spike)
        for handle in spike:
            kernel.free_pages(handle)
        for _ in range(kernel.unmovable.nr_frames // 16):
            kernel.alloc_pages(0, source=AllocSource.SLAB)
        start = kernel.layout.unmovable_blocks
        for _ in range(80):
            kernel.advance(200_000)
        rows.append({"bias": bias, "start": start,
                     "end": kernel.layout.unmovable_blocks,
                     "shrinks": kernel.stat[ev.REGION_SHRINK],
                     "blocked": kernel.resizer.blocked_shrinks})
    return rows


def _report_placement(rows: list, config: dict) -> str:
    from ..analysis import format_table

    return format_table(
        ["Placement", "Region start (blocks)", "Region end",
         "Shrinks", "Blocked shrinks"],
        [("bias on" if row["bias"] else "bias off", row["start"],
          row["end"], row["shrinks"], row["blocked"]) for row in rows],
        title=("Ablation: placement bias vs region shrinkability "
               "(demand spike drains in random order, then a trickle of "
               "long-lived allocations lands before the region shrinks)"),
    )


ABLATION_PLACEMENT = register(ExperimentSpec(
    name="ablation-placement",
    description="Placement bias away from the region border on/off vs "
                "how far the region can shrink (§3.2)",
    producer=_produce_placement,
    seed=5,
    figure="§3.2 ablation",
    postprocess=_report_placement,
    claims=(
        Ordered("bias-shrinks-further", "the bias keeps the border free, "
                "so the region shrinks further", lambda rows: [
                    _col(rows, "bias", "end")[bias] for bias in (True, False)
                ]),
        Ordered("bias-shrinks-more-often", "more successful shrinks with "
                "the bias", lambda rows: [_col(rows, "bias", "shrinks")[bias]
                                          for bias in (False, True)]),
    ),
))


def _produce_designs(ctx: ExperimentContext) -> list:
    """Three Contiguitas design choices, one ``part`` each.

    * ``initial-size``: the boot-time region size (the paper boots 4 GiB
      on 64 GiB hosts = 1/16) under churn seeded by the run's seed —
      too small forces synchronous expansions on the hot path, too big
      wastes movable memory until the resizer reclaims it.
    * ``slice-copy``: the shipped sequential slice hand-off (§3.3) vs
      letting all LLC slices copy concurrently.
    * ``hw-shrink``: confinement only vs Contiguitas-HW, which can
      evacuate occupied boundary blocks, so the region shrinks further.
    """
    import random

    from ..core.hwext import HwMigrationEngine
    from ..mm import AllocSource, MigrateType, PageHandle
    from ..mm import vmstat as ev

    rows = []
    for fraction in (1 / 32, 1 / 16, 1 / 8, 1 / 4):
        kernel = _boot("contiguitas", 64,
                       initial_unmovable_fraction=fraction)
        rng = random.Random(ctx.seed)
        live = []
        for _ in range(4000):
            if live and rng.random() < 0.4:
                kernel.free_pages(live.pop(rng.randrange(len(live))))
            else:
                live.append(kernel.alloc_pages(
                    0, source=AllocSource.NETWORKING))
            if len(live) % 200 == 0:
                kernel.advance(1000)
        rows.append({"part": "initial-size",
                     "size": f"1/{int(1 / fraction)}",
                     "expands": kernel.stat[ev.REGION_EXPAND],
                     "shrinks": kernel.stat[ev.REGION_SHRINK],
                     "blocks": kernel.layout.unmovable_blocks})
    engine = HwMigrationEngine()
    for src, dst in ((100, 200), (5000, 5001), (77, 4096)):
        rows.append({
            "part": "slice-copy", "migration": f"{src}->{dst}",
            "sequential": engine.estimate_copy_cycles(
                src, dst, parallel_slices=False),
            "parallel": engine.estimate_copy_cycles(
                src, dst, parallel_slices=True)})
    for hw in (False, True):
        kernel = _boot("contiguitas", 64, initial_unmovable_fraction=0.5,
                       hw_enabled=hw)
        rng = random.Random(9)
        # Sparse long-lived unmovable pages spread over the region with
        # no placement help: software shrink gets stuck on them.
        handles = [
            kernel.unmovable.alloc(0, MigrateType.UNMOVABLE,
                                   AllocSource.NETWORKING, prefer="lifo")
            for _ in range(kernel.unmovable.nr_frames // 2)
        ]
        rng.shuffle(handles)
        keep = handles[: len(handles) // 8]
        for pfn in handles[len(handles) // 8:]:
            kernel.unmovable.free(pfn)
        for pfn in keep:
            kernel.handles.register(PageHandle(
                pfn, 0, MigrateType.UNMOVABLE, AllocSource.NETWORKING, 0))
        for _ in range(60):
            kernel.advance(200_000)
        rows.append({"part": "hw-shrink", "hw": hw,
                     "blocks": kernel.layout.unmovable_blocks})
    return rows


def _report_designs(rows: list, config: dict) -> str:
    from ..analysis import format_table

    part = {name: [row for row in rows if row["part"] == name]
            for name in ("initial-size", "slice-copy", "hw-shrink")}
    text = format_table(
        ["Initial size", "Expands", "Shrinks", "Final blocks"],
        [(row["size"], row["expands"], row["shrinks"], row["blocks"])
         for row in part["initial-size"]],
        title="Ablation: initial unmovable-region size (64MiB machine)",
    )
    text += "\n\n" + format_table(
        ["Migration", "Sequential (cycles)", "Parallel (cycles)",
         "Speedup"],
        [(row["migration"], row["sequential"], row["parallel"],
          f"{row['sequential'] / row['parallel']:.1f}x")
         for row in part["slice-copy"]],
        title="Ablation: sequential vs parallel slice copy",
    )
    shrink = {row["hw"]: row["blocks"] for row in part["hw-shrink"]}
    return text + (
        f"\n\nAblation: shrinking a half-memory region with scattered "
        f"unmovable pages\n  confinement only: {shrink[False]} blocks "
        f"remain\n  with Contiguitas-HW: {shrink[True]} blocks remain"
    )


def _part(rows: list, part: str) -> list:
    return [row for row in rows if row["part"] == part]


ABLATION_DESIGNS = register(ExperimentSpec(
    name="ablation-designs",
    description="Initial region size, sequential vs parallel slice copy, "
                "and shrinking with Contiguitas-HW",
    producer=_produce_designs,
    seed=3,
    figure="§3.2-3.3 ablation",
    postprocess=_report_designs,
    claims=(
        Ordered("parallel-copy-faster", "parallel slice copy is faster "
                "(§3.3's trade-off)", lambda rows: {
                    row["migration"]: [row["parallel"], row["sequential"]]
                    for row in _part(rows, "slice-copy")}, "<="),
        Ordered("hw-shrinks-further", "Contiguitas-HW evacuates blocks "
                "software cannot", lambda rows: [
                    _col(_part(rows, "hw-shrink"), "hw", "blocks")[hw]
                    for hw in (True, False)]),
    ),
))


def _produce_pcp(ctx: ExperimentContext) -> list:
    """Per-CPU page caches on and off under the same CacheB churn.  PCP
    changes placement: concurrent allocation streams draw from per-CPU
    batches, interleaving allocations across the address space at batch
    granularity; Contiguitas's confinement must not care."""
    from ..analysis import unmovable_block_fraction
    from ..units import PAGEBLOCK_FRAMES
    from ..workloads.services import CACHE_B

    rows = []
    for kernel_name in ("linux", "contiguitas"):
        for pcp in (False, True):
            kernel = _boot(kernel_name, 256, pcp_enabled=pcp)
            _churn(kernel, _bounded_cache(CACHE_B), ctx.seed, 800)
            row = {"kernel": kernel_name, "pcp": pcp,
                   "unmovable_2m": unmovable_block_fraction(
                       kernel.mem, PAGEBLOCK_FRAMES)}
            if kernel_name == "contiguitas":
                row["violations"] = kernel.confinement_violations()
            rows.append(row)
    return rows


def _report_pcp(rows: list, config: dict) -> str:
    from ..analysis import format_table, percent

    return format_table(
        ["Kernel", "PCP", "Unmovable 2MB blocks", "Confinement violations"],
        [(row["kernel"], "on" if row["pcp"] else "off",
          percent(row["unmovable_2m"]), row.get("violations", "-"))
         for row in rows],
        title="Ablation: per-CPU page caches vs unmovable scattering",
    )


ABLATION_PCP = register(ExperimentSpec(
    name="ablation-pcp",
    description="Per-CPU page caches on/off vs unmovable scattering, "
                "Linux and Contiguitas",
    producer=_produce_pcp,
    seed=13,
    figure="PCP ablation",
    postprocess=_report_pcp,
    claims=(
        Ordered("linux-scatters", "Linux scatters and Contiguitas confines, "
                "with per-CPU caches or without", lambda rows: {
                    f"pcp={pcp}": [_row(rows, kernel=kernel, pcp=pcp)[
                        "unmovable_2m"] for kernel in ("contiguitas", "linux")]
                    for pcp in (False, True)}),
        Band("confined", "no confinement violation either way",
             lambda rows: {f"pcp={row['pcp']}": row["violations"]
                           for row in rows if "violations" in row}, 0, 0),
    ),
))


#: The Algorithm-1 knobs the search moves, with their table precision.
_RESIZE_KNOBS = {"threshold_unmov": 2, "threshold_mov": 2,
                 "c_ue": 3, "c_me": 3, "c_ms": 3, "c_us": 3}


def _produce_autotune(ctx: ExperimentContext) -> list:
    """The search history against a bursty unmovable-demand trace, one
    row per evaluated configuration; row 0 is the hand-tuned default."""
    from ..core.autotune import random_search, square_wave_demand

    demand = square_wave_demand(periods=3, low_frames=256,
                                high_frames=3072, steps_per_level=40)
    out = random_search(demand=demand, trials=ctx.params["trials"],
                        seed=ctx.seed)
    return [{"trial": trial, "cost": cost,
             **{knob: getattr(resize, knob) for knob in _RESIZE_KNOBS}}
            for trial, (resize, cost) in enumerate(out.history)]


def _report_autotune(rows: list, config: dict) -> str:
    from ..analysis import format_table

    base = rows[0]
    best = min(rows, key=lambda row: row["cost"])
    improvement = 1.0 - best["cost"] / base["cost"] if base["cost"] else 0.0
    return format_table(
        ["Parameter", "Default", "Tuned"],
        [(knob, f"{base[knob]:.{digits}f}", f"{best[knob]:.{digits}f}")
         for knob, digits in _RESIZE_KNOBS.items()]
        + [("cost", f"{base['cost']:,.0f}", f"{best['cost']:,.0f}")],
        title=(f"Algorithm-1 coefficient search ({config['trials']} "
               f"trials, bursty demand): {improvement:.1%} cost reduction"),
    )


ABLATION_AUTOTUNE = register(ExperimentSpec(
    name="ablation-autotune",
    description="Random search over the Algorithm-1 resize coefficients "
                "(the paper's future work, §3.2) vs the default",
    producer=_produce_autotune,
    defaults={"trials": 24},
    seed=5,
    figure="§3.2 ablation",
    postprocess=_report_autotune,
    claims=(
        Ordered("search-beats-default", "the paper's future work: tuned "
                "coefficients cost less than the defaults", lambda rows: [
                    min(row["cost"] for row in rows), rows[0]["cost"]]),
    ),
))
