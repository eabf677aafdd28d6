"""Size and time units used throughout the simulator.

All physical memory quantities in this package are expressed either in bytes
or in *frames* (4 KiB base pages).  These helpers keep conversions explicit
and readable at call sites: ``MiB(64)`` reads better than ``64 * 1048576``.
"""

from __future__ import annotations

#: Base page (frame) size in bytes, matching x86-64 Linux.
FRAME_SIZE = 4096

#: log2 of the number of base pages in a 2 MiB huge page / pageblock.
PAGEBLOCK_ORDER = 9

#: Number of base pages in a 2 MiB pageblock.
PAGEBLOCK_FRAMES = 1 << PAGEBLOCK_ORDER

#: Largest buddy order.  We cap buddy blocks at one pageblock (2 MiB) so a
#: free block never straddles a pageblock boundary; this keeps pageblock
#: stealing and Contiguitas region-boundary moves exact.  (Linux allows
#: 4 MiB blocks; nothing in the paper's evaluation depends on them, and
#: >2 MiB contiguity is obtained via ``alloc_contig_range`` as in Linux.)
MAX_ORDER = PAGEBLOCK_ORDER

#: Number of base pages in a 1 GiB huge page.
GIGAPAGE_FRAMES = (1 << 30) // FRAME_SIZE

#: Cache line size in bytes.
CACHE_LINE = 64

#: Cache lines per 4 KiB page.
LINES_PER_PAGE = FRAME_SIZE // CACHE_LINE


def MiB(n: float) -> int:
    """Return *n* mebibytes in bytes."""
    return int(n * 1024 * 1024)


def GiB(n: float) -> int:
    """Return *n* gibibytes in bytes."""
    return int(n * 1024 * 1024 * 1024)


def bytes_to_frames(nbytes: int) -> int:
    """Convert a byte count to whole 4 KiB frames (must divide evenly)."""
    if nbytes % FRAME_SIZE:
        raise ValueError(f"{nbytes} bytes is not a multiple of {FRAME_SIZE}")
    return nbytes // FRAME_SIZE


def order_of(nframes: int) -> int:
    """Return the buddy order whose block size is exactly *nframes* frames."""
    order = nframes.bit_length() - 1
    if nframes <= 0 or (1 << order) != nframes:
        raise ValueError(f"{nframes} is not a power-of-two frame count")
    return order
