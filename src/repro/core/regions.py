"""Two-region physical memory layout (paper §3.2, Fig. 7).

Contiguitas splits the physical address space at a pageblock-aligned
boundary: ``[0, boundary)`` is the movable region, ``[boundary, end)`` the
unmovable region.  Placing the unmovable region at the top of memory means
"away from the region border" is simply "toward higher addresses" for
unmovable allocations, and the whole movable region remains one maximal
stretch of potential contiguity starting at frame 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import PAGEBLOCK_FRAMES


@dataclass
class RegionLayout:
    """Tracks the movable/unmovable boundary in pageblock units.

    Attributes:
        total_blocks: pageblocks in the machine.
        boundary_block: first pageblock of the unmovable region.
        min_unmovable_blocks: floor for shrinking (the region never
            disappears; boot-time kernel memory lives there).
        max_unmovable_blocks: ceiling for expansion (the movable region
            must keep a working set's worth of memory).
    """

    total_blocks: int
    boundary_block: int
    min_unmovable_blocks: int = 2
    max_unmovable_blocks: int | None = None
    #: Frames hard-offlined by ``memory_failure`` in each region.  Pure
    #: capacity accounting: the offlined frames themselves stay in the
    #: frame arrays as poisoned placeholders, and a pageblock containing
    #: one can never be evacuated, so holes never cross the boundary and
    #: these counters never need re-attribution on a resize.
    offlined_movable: int = 0
    offlined_unmovable: int = 0

    def __post_init__(self) -> None:
        if self.max_unmovable_blocks is None:
            # By default the unmovable region may grow to half of memory.
            self.max_unmovable_blocks = self.total_blocks // 2
        if not (0 < self.boundary_block < self.total_blocks):
            raise ConfigurationError(
                f"boundary {self.boundary_block} outside "
                f"(0, {self.total_blocks})")
        if self.unmovable_blocks < self.min_unmovable_blocks:
            raise ConfigurationError("initial unmovable region below minimum")

    @classmethod
    def with_initial_unmovable(
        cls, total_blocks: int, unmovable_fraction: float = 1 / 16,
    ) -> "RegionLayout":
        """Boot-time layout: the paper configures 4 GiB of unmovable region
        on 64 GiB servers, i.e. 1/16 of memory."""
        unmovable = max(2, int(total_blocks * unmovable_fraction))
        return cls(total_blocks=total_blocks,
                   boundary_block=total_blocks - unmovable)

    def snapshot(self) -> list[int]:
        """The boundary and the offlined-frame counts (the rest is the
        config's)."""
        return [self.boundary_block, self.offlined_movable,
                self.offlined_unmovable]

    def restore(self, state: list[int]) -> None:
        (self.boundary_block, self.offlined_movable,
         self.offlined_unmovable) = state

    # -- derived geometry -------------------------------------------------

    @property
    def movable_blocks(self) -> int:
        return self.boundary_block

    @property
    def unmovable_blocks(self) -> int:
        return self.total_blocks - self.boundary_block

    @property
    def movable_frames(self) -> int:
        return self.movable_blocks * PAGEBLOCK_FRAMES

    @property
    def unmovable_frames(self) -> int:
        return self.unmovable_blocks * PAGEBLOCK_FRAMES

    @property
    def boundary_pfn(self) -> int:
        return self.boundary_block * PAGEBLOCK_FRAMES

    def in_unmovable(self, pfn: int) -> bool:
        return pfn >= self.boundary_block * PAGEBLOCK_FRAMES

    # -- offline (hwpoison) accounting ------------------------------------

    def note_offline(self, pfn: int) -> None:
        """Record that frame *pfn* went offline for good; the effective
        capacity of its region shrinks by one frame."""
        if self.in_unmovable(pfn):
            self.offlined_unmovable += 1
        else:
            self.offlined_movable += 1

    @property
    def effective_movable_frames(self) -> int:
        """Movable-region frames that can actually hold data."""
        return self.movable_frames - self.offlined_movable

    @property
    def effective_unmovable_frames(self) -> int:
        """Unmovable-region frames that can actually hold data."""
        return self.unmovable_frames - self.offlined_unmovable

    # -- boundary moves ----------------------------------------------------

    def can_expand_unmovable(self, blocks: int = 1) -> bool:
        return (self.unmovable_blocks + blocks <= self.max_unmovable_blocks
                and self.boundary_block - blocks > 0)

    def can_shrink_unmovable(self, blocks: int = 1) -> bool:
        return self.unmovable_blocks - blocks >= self.min_unmovable_blocks

    def expand_unmovable(self, blocks: int = 1) -> None:
        """Move the boundary down, growing the unmovable region."""
        if not self.can_expand_unmovable(blocks):
            raise ConfigurationError("expand beyond limits")
        self.boundary_block -= blocks

    def shrink_unmovable(self, blocks: int = 1) -> None:
        """Move the boundary up, returning memory to the movable region."""
        if not self.can_shrink_unmovable(blocks):
            raise ConfigurationError("shrink beyond limits")
        self.boundary_block += blocks
