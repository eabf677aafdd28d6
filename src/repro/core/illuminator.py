"""Illuminator baseline (Panwar et al., ASPLOS'18), as characterised in the
paper's introduction.

Illuminator prevents *mixing* movable and unmovable allocations within a
2 MiB block: an unmovable fallback may only claim a **fully free**
pageblock, which it converts wholesale.  This keeps every individual block
pure but still scatters unmovable blocks across the address space, so the
maximum recoverable contiguity stays capped at 2 MiB — the key limitation
Contiguitas removes (paper §1: "a single unmovable 4 KB page can render a
1 GB region unmovable").
"""

from __future__ import annotations

from ..mm import vmstat as ev
from ..mm.buddy import BuddyAllocator
from ..mm.fallback import fallback_types
from ..mm.kernel import LinuxKernel
from ..units import MAX_ORDER


class StrictPageblockBuddy(BuddyAllocator):
    """Buddy allocator whose fallbacks only convert fully free pageblocks."""

    def _alloc_fallback(self, order, mt, direction):
        """Claim a whole free pageblock of another type, convert it to
        *mt*, and allocate from it; never split a partially used foreign
        block (that would mix types within 2 MiB)."""
        for fb in fallback_types(mt):
            if not self._occ[fb] >> MAX_ORDER & 1:
                continue
            pfn = self._take(MAX_ORDER, fb, direction)
            self.stat.inc(ev.ALLOC_FALLBACK)
            self.pageblocks.set(pfn, mt)
            self.stat.inc(ev.PAGEBLOCK_STEAL)
            return self._expand(pfn, MAX_ORDER, order, mt, direction)
        return None


class IlluminatorKernel(LinuxKernel):
    """Linux with Illuminator-style strict pageblock separation."""

    name = "illuminator"

    def _build_allocators(self) -> None:
        from ..mm.reclaim import Watermarks

        self.buddy = StrictPageblockBuddy(
            self.mem, self.pageblocks, self.stat, prefer="lifo",
            label="zone-normal")
        self.buddy.seed_free()
        self.watermarks = Watermarks.for_frames(self.buddy.nr_frames)
