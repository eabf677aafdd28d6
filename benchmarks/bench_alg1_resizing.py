"""Algorithm 1 ablation: region resizing under pressure scenarios.

Exercises the paper's resizing algorithm two ways: (a) the pure function
over a grid of pressure inputs, and (b) a live kernel driven through an
unmovable-demand spike — the region must grow to absorb it and shrink
back once the demand subsides.
"""

from repro.analysis import format_table
from repro.core import ResizeConfig, target_unmovable_frames
from repro.mm import AllocSource
from repro.mm import vmstat as ev
from repro.units import MiB

from common import make_contiguitas, save_result

SCENARIOS = (
    # (pressure_unmov, pressure_mov, expectation)
    (0.0, 0.0, "shrink (idle)"),
    (20.0, 0.0, "expand (unmovable demand)"),
    (50.0, 0.0, "expand harder"),
    (0.0, 30.0, "shrink (movable demand)"),
    (50.0, 50.0, "no expand (both pressured)"),
)


def scenario_rows():
    cfg = ResizeConfig()
    mem = 100_000
    rows = []
    for pu, pm, expectation in SCENARIOS:
        target = target_unmovable_frames(pu, pm, mem, cfg)
        rows.append((pu, pm, mem, target,
                     f"{(target - mem) / mem:+.1%}", expectation))
    return rows


def demand_spike_run():
    """Drive a kernel through an unmovable allocation spike and release."""
    kernel = make_contiguitas(MiB(64))
    initial = kernel.layout.unmovable_blocks
    handles = [kernel.alloc_pages(0, source=AllocSource.NETWORKING)
               for _ in range(6 * 512)]
    peak = kernel.layout.unmovable_blocks
    for handle in handles:
        kernel.free_pages(handle)
    for _ in range(60):
        kernel.advance(200_000)
    settled = kernel.layout.unmovable_blocks
    return initial, peak, settled, kernel


def test_alg1_resizing():
    rows = scenario_rows()
    initial, peak, settled, kernel = demand_spike_run()
    text = format_table(
        ["P_unmov", "P_mov", "Mem_unmov", "Target", "Delta", "Expected"],
        rows,
        title="Algorithm 1: resizing targets per pressure scenario",
    )
    text += (
        f"\n\nLive demand spike: region {initial} -> {peak} -> {settled} "
        f"pageblocks (expands {kernel.stat[ev.REGION_EXPAND]}, "
        f"shrinks {kernel.stat[ev.REGION_SHRINK]})"
    )
    save_result("alg1_resizing.txt", text)

    # Pure-function expectations.
    by_case = {(pu, pm): t for pu, pm, m, t, _, _ in rows}
    assert by_case[(0.0, 0.0)] < 100_000
    assert by_case[(20.0, 0.0)] > 100_000
    assert by_case[(50.0, 0.0)] > by_case[(20.0, 0.0)]
    assert by_case[(50.0, 50.0)] <= 100_000

    # Live behaviour: grow under demand, give memory back afterwards.
    assert peak > initial
    assert settled < peak
    assert kernel.confinement_violations() == 0
