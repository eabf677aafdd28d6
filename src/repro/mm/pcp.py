"""Per-CPU page lists (Linux's ``per_cpu_pages``).

Order-0 allocations and frees on Linux go through per-CPU caches: each CPU
holds small per-migratetype lists of free pages, refilled from and spilled
to the buddy allocator in batches.  Besides lock avoidance (irrelevant
here), PCP changes *placement*: each CPU draws from its own batch, so
concurrent allocation streams interleave across the address space at batch
granularity instead of funnelling through one global list — one more
mechanism that spreads unmovable allocations around (paper §2.5).

:class:`PerCpuPages` wraps a :class:`~repro.mm.buddy.BuddyAllocator`; the
kernel facade routes order-0 traffic through it when enabled.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigurationError
from .buddy import BuddyAllocator
from .page import AllocSource, MigrateType


class PerCpuPages:
    """Per-CPU, per-migratetype free-page caches over one buddy allocator.

    Args:
        buddy: the backing allocator.
        cpus: number of per-CPU caches.
        batch: pages moved per refill/spill (Linux's ``pcp->batch``).
        high: spill threshold (Linux's ``pcp->high``).
    """

    def __init__(self, buddy: BuddyAllocator, cpus: int = 8,
                 batch: int = 32, high: int = 96) -> None:
        if batch <= 0 or high < batch:
            raise ConfigurationError(
                f"need 0 < batch <= high, got batch={batch} high={high}")
        self.buddy = buddy
        self.cpus = cpus
        self.batch = batch
        self.high = high
        self._lists: list[dict[MigrateType, deque[int]]] = [
            {mt: deque() for mt in MigrateType} for _ in range(cpus)
        ]
        self._next_cpu = 0
        self.refills = 0
        self.spills = 0

    def snapshot(self) -> dict:
        """The per-CPU lists (PFNs, per migrate type) and the cursors."""
        return {"pcp": {"lists": [[list(lists[mt]) for mt in MigrateType]
                                  for lists in self._lists],
                        "next_cpu": self._next_cpu, "refills": self.refills,
                        "spills": self.spills}}

    def restore(self, state) -> None:
        state = state["pcp"]
        if len(state["lists"]) != self.cpus:
            raise ValueError(f"{len(state['lists'])} per-CPU lists, "
                             f"expected {self.cpus}")
        self._lists = [{mt: deque(pfns) for mt, pfns in zip(
            MigrateType, lists, strict=True)} for lists in state["lists"]]
        self._next_cpu = state["next_cpu"]
        self.refills, self.spills = state["refills"], state["spills"]

    # ------------------------------------------------------------------

    def held_pages(self) -> int:
        """Free pages currently parked on PCP lists (invisible to the
        buddy allocator's ``nr_free``)."""
        return sum(len(lst) for lists in self._lists for lst in lists.values())

    def _rotate_cpu(self) -> int:
        """Round-robin CPU selection (the simulator's stand-in for
        whichever CPU the allocating thread happens to run on)."""
        cpu = self._next_cpu
        self._next_cpu = (self._next_cpu + 1) % self.cpus
        return cpu

    # ------------------------------------------------------------------

    def alloc(self, migratetype: MigrateType,
              source: AllocSource = AllocSource.USER,
              now: int = 0, pinned: bool = False,
              cpu: int | None = None) -> int | None:
        """Allocate one order-0 page through a CPU's cache."""
        if cpu is None:
            cpu = self._rotate_cpu()
        lst = self._lists[cpu][migratetype]
        if not lst and not self._refill(cpu, migratetype):
            return None
        pfn = lst.popleft()
        self.buddy.mem.mark_allocated(pfn, 0, migratetype, source, now,
                                      pinned)
        self.buddy.stat.inc("alloc_success")
        return pfn

    def free(self, pfn: int, cpu: int | None = None) -> None:
        """Free one order-0 page to a CPU's cache, spilling if over
        ``high``."""
        if cpu is None:
            cpu = self._rotate_cpu()
        mt = self.buddy.pageblocks.get(pfn)
        order = self.buddy.mem.mark_free(pfn)
        if order != 0:
            # Higher orders bypass PCP, as in Linux.
            self.buddy.free_block(pfn, order)
            return
        lst = self._lists[cpu][mt]
        lst.append(pfn)
        if len(lst) > self.high:
            self._spill(cpu, mt)

    def _refill(self, cpu: int, mt: MigrateType) -> bool:
        """Pull a batch of order-0 pages from the buddy (rmqueue_bulk).

        The fast path drains through :meth:`BuddyAllocator.take_free_bulk`
        — for a LIFO allocator the popped PFN sequence is bit-identical
        to the scalar loop's — and the scalar loop finishes the tail
        (partial blocks, fallback stealing, watermark faults), so the
        cache fill matches a fully scalar refill frame for frame.
        """
        lst = self._lists[cpu][mt]
        bulk = self.buddy.take_free_bulk(self.batch, mt)
        if bulk.size:
            lst.extend(bulk.tolist())
        got = int(bulk.size)
        while got < self.batch:
            pfn = self.buddy.take_free(0, mt)
            if pfn is None and self.buddy.fallback_enabled:
                # One fallback attempt per page, like __rmqueue.
                pfn = self.buddy._alloc_fallback(0, mt, self.buddy.prefer)
            if pfn is None:
                break
            lst.append(pfn)
            got += 1
        if got:
            self.refills += 1
        return got > 0

    def _spill(self, cpu: int, mt: MigrateType) -> None:
        """Return a batch to the buddy (free_pcppages_bulk)."""
        lst = self._lists[cpu][mt]
        for _ in range(min(self.batch, len(lst))):
            self.buddy.free_block(lst.popleft(), 0)
        self.spills += 1

    def drain(self) -> int:
        """Flush every CPU list back to the buddy; returns pages drained.

        The kernel drains PCPs before compaction and contiguous
        allocation — parked pages would otherwise be invisible holes.
        """
        drained = 0
        for cpu in range(self.cpus):
            for mt in MigrateType:
                lst = self._lists[cpu][mt]
                while lst:
                    self.buddy.free_block(lst.popleft(), 0)
                    drained += 1
        return drained
