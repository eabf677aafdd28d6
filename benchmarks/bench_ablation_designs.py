"""Ablations over Contiguitas design choices.

* Initial unmovable-region size sweep (the paper boots 4 GiB on 64 GiB
  hosts = 1/16): too small forces synchronous expansions on the hot path,
  too big wastes movable memory until the resizer reclaims it.
* Sequential vs parallel slice copy (§3.3): the shipped sequential
  hand-off vs letting all LLC slices copy concurrently.
* Confinement-only vs Contiguitas-HW: with hardware, occupied boundary
  blocks can be evacuated and the region shrinks further.
"""

import random

from repro.analysis import format_table
from repro.core.hwext import HwMigrationEngine
from repro.mm import AllocSource
from repro.mm import vmstat as ev
from repro.units import MiB

from common import make_contiguitas, save_result


def initial_size_sweep():
    rows = []
    for fraction in (1 / 32, 1 / 16, 1 / 8, 1 / 4):
        kernel = make_contiguitas(MiB(64),
                                  initial_unmovable_fraction=fraction)
        rng = random.Random(3)
        live = []
        for _ in range(4000):
            if live and rng.random() < 0.4:
                kernel.free_pages(live.pop(rng.randrange(len(live))))
            else:
                live.append(kernel.alloc_pages(
                    0, source=AllocSource.NETWORKING))
            if len(live) % 200 == 0:
                kernel.advance(1000)
        rows.append((f"1/{int(1 / fraction)}",
                     kernel.stat[ev.REGION_EXPAND],
                     kernel.stat[ev.REGION_SHRINK],
                     kernel.layout.unmovable_blocks))
    return rows


def slice_copy_comparison():
    engine = HwMigrationEngine()
    rows = []
    for src, dst in ((100, 200), (5000, 5001), (77, 4096)):
        seq = engine.estimate_copy_cycles(src, dst, parallel_slices=False)
        par = engine.estimate_copy_cycles(src, dst, parallel_slices=True)
        rows.append((f"{src}->{dst}", seq, par, f"{seq / par:.1f}x"))
    return rows


def hw_shrink_comparison():
    from repro.mm import MigrateType, PageHandle

    out = {}
    for hw in (False, True):
        kernel = make_contiguitas(MiB(64), initial_unmovable_fraction=0.5,
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
        out[hw] = kernel.layout.unmovable_blocks
    return out


def test_ablation_designs():
    size_rows = initial_size_sweep()
    copy_rows = slice_copy_comparison()
    shrink = hw_shrink_comparison()

    text = format_table(
        ["Initial size", "Expands", "Shrinks", "Final blocks"],
        size_rows,
        title="Ablation: initial unmovable-region size (64MiB machine)",
    )
    text += "\n\n" + format_table(
        ["Migration", "Sequential (cycles)", "Parallel (cycles)",
         "Speedup"],
        copy_rows,
        title="Ablation: sequential vs parallel slice copy",
    )
    text += (
        f"\n\nAblation: shrinking a half-memory region with scattered "
        f"unmovable pages\n  confinement only: {shrink[False]} blocks "
        f"remain\n  with Contiguitas-HW: {shrink[True]} blocks remain"
    )
    save_result("ablation_designs.txt", text)

    # Small initial regions expand more; large ones shrink more.
    assert size_rows[0][1] >= size_rows[-1][1]
    assert size_rows[-1][2] >= size_rows[0][2]
    # Parallel slice copy is faster, sequential never loses correctness.
    for _, seq, par, _ in copy_rows:
        assert par <= seq
    # Hardware migration unlocks shrinking that software cannot do.
    assert shrink[True] < shrink[False]
