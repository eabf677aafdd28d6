"""Illuminator baseline: strict pageblock separation and its limits."""

import pytest

from repro.core import IlluminatorKernel
from repro.mm import AllocSource, KernelConfig, MigrateType
from repro.mm import vmstat as ev
from repro.units import MiB, PAGEBLOCK_FRAMES
from repro.analysis import movable_potential, unmovable_block_fraction


def make_illuminator(mem_mib=32, **kwargs):
    return IlluminatorKernel(KernelConfig(mem_bytes=MiB(mem_mib), **kwargs))


def test_fallback_only_takes_free_pageblocks():
    k = make_illuminator()
    # First unmovable allocation converts one whole free pageblock.
    h = k.alloc_pages(0, source=AllocSource.SLAB)
    block = k.mem.pageblock_of(h.pfn)
    assert k.pageblocks.get_block(block) is MigrateType.UNMOVABLE
    assert k.stat[ev.PAGEBLOCK_STEAL] == 1


def test_no_mixing_within_pageblocks():
    """Illuminator's guarantee: a 2 MiB block is never shared by movable
    and unmovable allocations."""
    import random

    from conftest import churn

    k = make_illuminator()
    churn(k, random.Random(0), steps=2000, unmovable_fraction=0.3,
          pin_fraction=0.0)
    unmovable = k.mem.unmovable_mask()
    movable = k.mem.allocated_mask() & ~unmovable
    for block in range(k.mem.npageblocks):
        s = slice(block * PAGEBLOCK_FRAMES, (block + 1) * PAGEBLOCK_FRAMES)
        assert not (unmovable[s].any() and movable[s].any()), block


def test_unmovable_exhaustion_without_free_pageblock():
    """The Illuminator limitation: when no fully free pageblock remains,
    an unmovable allocation fails even if plenty of scattered free
    4 KiB pages exist inside movable blocks."""
    from repro.errors import OutOfMemoryError

    k = make_illuminator(mem_mib=8)
    # Fill all memory, then free everything except one page per block:
    # plenty of free 4 KiB pages, but no block is fully free.
    holders = [k.alloc_pages(0) for _ in range(k.mem.nframes)]
    per_block = {}
    for h in holders:
        per_block.setdefault(k.mem.pageblock_of(h.pfn), h)
    for h in holders:
        if per_block[k.mem.pageblock_of(h.pfn)] is not h:
            k.free_pages(h)
    assert k.free_frames() > k.mem.nframes // 2
    with pytest.raises(OutOfMemoryError):
        k.alloc_pages(0, source=AllocSource.SLAB)


def test_contiguity_capped_at_pageblock():
    """Illuminator keeps blocks pure but still scatters unmovable blocks,
    capping recoverable contiguity at 2 MiB (paper §1)."""
    import random

    from conftest import churn

    k = make_illuminator()
    # Moderate-utilisation churn: Illuminator needs whole free pageblocks
    # for kernel fallbacks, so memory-full churn would OOM it (which is
    # itself part of the paper's critique).
    churn(k, random.Random(3), steps=3000, unmovable_fraction=0.3,
          pin_fraction=0.0)
    pot_2m = movable_potential(k.mem, PAGEBLOCK_FRAMES)
    pot_32m = movable_potential(k.mem, 16 * PAGEBLOCK_FRAMES)
    # Pure blocks: 2 MiB potential stays decent, 32 MiB collapses
    # because unmovable blocks pepper the address space.
    assert pot_2m > 0.5
    assert pot_32m < pot_2m


def test_pinning_still_pollutes():
    """Illuminator has no answer to dynamic pinning: a pinned page
    freezes its (previously movable) block."""
    k = make_illuminator()
    h = k.alloc_pages(0)
    k.pin_pages(h)
    block = k.mem.pageblock_of(h.pfn)
    assert k.pageblocks.get_block(block) is MigrateType.MOVABLE
    assert unmovable_block_fraction(k.mem, PAGEBLOCK_FRAMES) > 0
