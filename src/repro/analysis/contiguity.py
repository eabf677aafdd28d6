"""Physical-memory contiguity measurement (paper §2.4, §5.2).

Vectorised full-memory scans mirroring the paper's fleet methodology:

* :func:`free_contiguity` — how much of the *free* memory sits in fully
  free aligned blocks of a given size (Fig. 4's metric);
* :func:`unmovable_block_fraction` — the share of aligned blocks poisoned
  by at least one unmovable page (Figs. 5 and 11);
* :func:`movable_potential` — memory that a hypothetically perfect
  compaction could consolidate: blocks containing no unmovable page
  (Fig. 12);
* :func:`unmovable_region_internal_frag` — free space trapped inside
  occupied 2 MiB blocks of Contiguitas's unmovable region (§5.2, ~22 %).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..mm.physmem import PhysicalMemory
from ..units import GIGAPAGE_FRAMES, PAGEBLOCK_FRAMES

#: The block granularities the paper scans: 2 MiB, 4 MiB, 32 MiB, 1 GiB.
SCAN_GRANULARITIES = {
    "2MB": PAGEBLOCK_FRAMES,
    "4MB": 2 * PAGEBLOCK_FRAMES,
    "32MB": 16 * PAGEBLOCK_FRAMES,
    "1GB": GIGAPAGE_FRAMES,
}


def _block_view(mask: np.ndarray, block_frames: int) -> np.ndarray:
    """Reshape a per-frame mask into (nblocks, block_frames), truncating
    any partial tail block."""
    if block_frames <= 0:
        raise ConfigurationError("block size must be positive")
    nblocks = mask.size // block_frames
    if nblocks == 0:
        return mask[:0].reshape(0, block_frames)
    return mask[: nblocks * block_frames].reshape(nblocks, block_frames)


def free_contiguity(mem: PhysicalMemory, block_frames: int) -> float:
    """Fraction of free memory that lies in fully free aligned blocks.

    This is Fig. 4's x-axis quantity: with no fragmentation every free
    frame is part of a free block and the value is ~1; a server that
    cannot assemble a single block scores 0.
    """
    free = ~mem.allocated_mask()
    total_free = int(np.count_nonzero(free))
    if total_free == 0:
        return 0.0
    blocks = _block_view(free, block_frames)
    fully_free = blocks.all(axis=1)
    return float(fully_free.sum() * block_frames / total_free)


def free_block_count(mem: PhysicalMemory, block_frames: int) -> int:
    """Number of fully free aligned blocks of *block_frames* frames."""
    blocks = _block_view(~mem.allocated_mask(), block_frames)
    return int(blocks.all(axis=1).sum())


def unmovable_block_fraction(mem: PhysicalMemory,
                             block_frames: int) -> float:
    """Fraction of aligned blocks containing >= 1 unmovable page.

    A single unmovable 4 KiB page renders its whole block unusable for a
    larger mapping — the scattering amplification the paper quantifies
    (7.6 % of 4 KiB pages poisoning 34 % of 2 MiB blocks, §2.5).
    """
    unmovable = mem.unmovable_mask()
    # A granularity larger than the scanned range degenerates to "does
    # the whole range contain any unmovable page" — the right question
    # when asking a scaled-down machine about 1 GiB regions.
    block_frames = min(block_frames, unmovable.size)
    blocks = _block_view(unmovable, block_frames)
    if blocks.shape[0] == 0:
        return 0.0
    return float(blocks.any(axis=1).mean())


def movable_potential(mem: PhysicalMemory, block_frames: int) -> float:
    """Fraction of total memory usable as contiguity after a *perfect*
    software compaction: blocks with zero unmovable pages (Fig. 12)."""
    unmovable = mem.unmovable_mask()
    blocks = _block_view(unmovable, block_frames)
    if blocks.shape[0] == 0:
        return 0.0
    return float((~blocks.any(axis=1)).mean())


def unmovable_region_internal_frag(mem: PhysicalMemory,
                                   start_pfn: int) -> float:
    """Free-page share inside *occupied* 2 MiB blocks from *start_pfn* on.

    §5.2 measures ~22 % for Contiguitas's unmovable region — free space
    that software cannot recover (its neighbours are unmovable), which
    motivates Contiguitas-HW defragmentation.
    """
    allocated = mem.allocated_mask(start_pfn)
    blocks = _block_view(allocated, PAGEBLOCK_FRAMES)
    if blocks.shape[0] == 0:
        return 0.0
    occupied = blocks.any(axis=1)
    if not occupied.any():
        return 0.0
    used = blocks[occupied]
    return float(1.0 - used.mean())


def contiguity_report(mem: PhysicalMemory) -> dict[str, float]:
    """Fig. 4-style summary across all scan granularities."""
    return {
        name: free_contiguity(mem, frames)
        for name, frames in SCAN_GRANULARITIES.items()
    }


def unmovable_report(mem: PhysicalMemory) -> dict[str, float]:
    """Fig. 5-style summary across all scan granularities."""
    return {
        name: unmovable_block_fraction(mem, frames)
        for name, frames in SCAN_GRANULARITIES.items()
    }
