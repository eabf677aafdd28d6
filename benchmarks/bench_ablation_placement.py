"""Ablation: placement bias away from the region border (§3.2).

With the bias, free space in the unmovable region concentrates next to
the boundary and shrinking succeeds; without it, allocations land at the
border and an idle oversized region cannot give memory back.
"""

import random

from repro.analysis import format_table
from repro.core import PlacementPolicy
from repro.mm import AllocSource
from repro.mm import vmstat as ev
from repro.units import MiB

from common import make_contiguitas, save_result


def run_variant(bias_enabled: bool):
    kernel = make_contiguitas(
        MiB(64), initial_unmovable_fraction=0.5,
        placement=PlacementPolicy(bias_enabled=bias_enabled))
    rng = random.Random(5)
    # Demand spike fills the region, then drains in *random* order — the
    # region is now oversized with free frames everywhere.  A trickle of
    # new long-lived allocations follows: with the bias they are steered
    # away from the boundary; without it, LIFO reuse drops them onto the
    # most recently freed (random) frames, blocking the coming shrink.
    spike = [kernel.alloc_pages(0, source=AllocSource.SLAB)
             for _ in range(int(kernel.unmovable.nr_frames * 0.9))]
    rng.shuffle(spike)
    for handle in spike:
        kernel.free_pages(handle)
    for _ in range(kernel.unmovable.nr_frames // 16):
        kernel.alloc_pages(0, source=AllocSource.SLAB)
    start_blocks = kernel.layout.unmovable_blocks
    for _ in range(80):
        kernel.advance(200_000)
    return {
        "start": start_blocks,
        "end": kernel.layout.unmovable_blocks,
        "shrinks": kernel.stat[ev.REGION_SHRINK],
        "blocked": kernel.resizer.blocked_shrinks,
    }


def compute():
    return {bias: run_variant(bias) for bias in (True, False)}


def test_ablation_placement():
    out = compute()
    rows = [
        ("bias on" if bias else "bias off",
         v["start"], v["end"], v["shrinks"], v["blocked"])
        for bias, v in out.items()
    ]
    text = format_table(
        ["Placement", "Region start (blocks)", "Region end",
         "Shrinks", "Blocked shrinks"],
        rows,
        title=("Ablation: placement bias vs region shrinkability "
               "(demand spike drains in random order, then a trickle of "
               "long-lived allocations lands before the region shrinks)"),
    )
    save_result("ablation_placement.txt", text)

    with_bias = out[True]
    without = out[False]
    # The bias must recover strictly more memory.
    assert with_bias["end"] < without["end"]
    assert with_bias["shrinks"] > without["shrinks"]
