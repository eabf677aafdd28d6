#!/usr/bin/env python3
"""Quickstart: boot a Contiguitas kernel and watch confinement work.

Runs a baseline Linux kernel and a Contiguitas kernel side by side on the
same allocation sequence, then shows where unmovable memory ended up and
what that does to huge-page availability.

Usage::

    python examples/quickstart.py
"""

import random

from repro import (
    AllocSource,
    ContiguitasConfig,
    ContiguitasKernel,
    KernelConfig,
    LinuxKernel,
)
from repro.analysis import (
    format_table,
    unmovable_block_fraction,
)
from repro.units import MiB, PAGEBLOCK_FRAMES


def drive(kernel, seed: int = 1, steps: int = 4000) -> None:
    """A small mixed workload: user pages, kernel buffers, pins, frees."""
    rng = random.Random(seed)
    live = []
    for _ in range(steps):
        if live and rng.random() < 0.45:
            handle = live.pop(rng.randrange(len(live)))
            if handle.pinned:
                kernel.unpin_pages(handle)
            kernel.free_pages(handle)
            continue
        roll = rng.random()
        if roll < 0.72:
            handle = kernel.alloc_pages(0)  # anonymous user memory
        elif roll < 0.92:
            handle = kernel.alloc_pages(
                0, source=rng.choice([AllocSource.NETWORKING,
                                      AllocSource.SLAB,
                                      AllocSource.FILESYSTEM]))
        else:
            handle = kernel.alloc_pages(0)
            kernel.pin_pages(handle)  # zero-copy pin
        live.append(handle)
        kernel.advance(100)


def main() -> None:
    rows = []
    for kernel in (LinuxKernel(KernelConfig(mem_bytes=MiB(64))),
                   ContiguitasKernel(ContiguitasConfig(mem_bytes=MiB(64)))):
        drive(kernel)
        huge = kernel.alloc_thp()
        rows.append((
            kernel.name,
            format(unmovable_block_fraction(kernel.mem, PAGEBLOCK_FRAMES),
                   ".1%"),
            "yes" if huge is not None else "no",
        ))
        if kernel.name == "contiguitas":
            print(f"Contiguitas region layout: "
                  f"{kernel.layout.movable_blocks} movable + "
                  f"{kernel.layout.unmovable_blocks} unmovable pageblocks, "
                  f"confinement violations: "
                  f"{kernel.confinement_violations()}")
    print()
    print(format_table(
        ["Kernel", "2MB blocks with unmovable pages", "THP available"],
        rows,
        title="Same workload, two kernels:",
    ))


if __name__ == "__main__":
    main()
