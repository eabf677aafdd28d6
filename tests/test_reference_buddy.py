"""The fused allocator core against the reference model, rule by rule.

A hypothesis state machine drives a ``BuddyAllocator`` (``lifo``,
``low`` and ``high``), a ``LinuxKernel`` and a ``ContiguitasKernel``
beside ``reference_buddy``'s naive model.  Every allocation must return
the PFN the model returns — pop order is part of every digest — and
after every rule the two must agree on the free lists (each list's
count, head, tail and member links, hence its members in order and the
free-area histogram), the pageblock
migratetypes, the free frames per migratetype and Mansi & Swift's
fragmentation metrics: the free-region size distribution, read from the
frame arrays on one side and the model's lists on the other, and the
unusable-free-space and fragmentation indices per order.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import ContiguitasConfig, ContiguitasKernel
from repro.mm import (
    DEFAULT_MIGRATETYPE,
    AllocSource,
    BuddyAllocator,
    KernelConfig,
    LinuxKernel,
    MigrateType,
    PageblockTable,
    PhysicalMemory,
    VmStat,
)
from repro.mm.handle import HandleBatch, PageHandle
from repro.units import MAX_ORDER, MiB

from reference_buddy import RefBuddy, RefKernel

from conftest import free_frames_by_type

#: Rule steps each configuration must run inside Tier-1.
MIN_STEPS = 10_000
EXAMPLES, STEPS_PER_EXAMPLE = 10, 250

ORDERS = st.sampled_from([0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 9])
MTS = st.sampled_from(list(MigrateType))
MTS_OR_DEFAULT = st.sampled_from([None, *MigrateType])
SOURCES = st.sampled_from(list(AllocSource))
PICK = st.integers(0, 1 << 20)


def region_sizes(allocated: np.ndarray) -> list[int]:
    """Free-region sizes, sorted: the maximal runs of frames that
    *allocated* marks False."""
    cuts = [0, *(np.flatnonzero(allocated[1:] != allocated[:-1])
                 + 1).tolist(), len(allocated)]
    runs = [end - start for start, end in zip(cuts, cuts[1:])]
    return sorted(runs[1 if allocated[0] else 0::2])


def ref_region_sizes(heads: dict) -> list[int]:
    """The same from the model's free blocks (head -> (order, mt)): a
    region breaks where a block does not start at the previous end."""
    sizes = []
    start = end = -1
    for head in sorted(heads):
        if head != end:
            if start >= 0:
                sizes.append(end - start)
            start = head
        end = head + (1 << heads[head][0])
    if start >= 0:
        sizes.append(end - start)
    return sorted(sizes)


def frag_metrics(blocks) -> list[tuple[float, float]]:
    """Per order *j*, from the free blocks per order (indexed by order):
    the unusable free space index and the fragmentation index (Gorman;
    -1 where a block of order >= *j* is free), the metrics Mansi &
    Swift track."""
    total = sum(n << o for o, n in enumerate(blocks))
    count = sum(blocks)
    out, usable = [], 0
    for j in range(MAX_ORDER, -1, -1):
        usable += blocks[j] << j
        out.append(((total - usable) / total if total else 0.0,
                    -1.0 if usable or not count
                    else 1 - (1 + total / (1 << j)) / count))
    return out


def lists_agree(mem: PhysicalMemory, real: BuddyAllocator,
                ref: RefBuddy) -> None:
    """*real*'s free lists hold *ref*'s members in *ref*'s order: the
    table's count of every list, the head and tail of every non-empty
    one, and every member's ``free_next``/``free_prev`` links, each
    column read in one gather.  A walk from a head is then the model's
    list, and the free frames per migratetype, a sum over the counts
    on either side, agree with them."""
    assert real._count == [len(members) for members in ref.lists.values()]
    lists = {li: list(members)
             for li, members in enumerate(ref.lists.values()) if members}
    if not lists:
        return
    assert [real._head[li] for li in lists] == [m[0] for m in lists.values()]
    assert [real._tail[li] for li in lists] == [m[-1] for m in lists.values()]
    members = np.fromiter(itertools.chain(*lists.values()), np.int64)
    last = np.array(list(itertools.accumulate(map(len, lists.values())))) - 1
    expected = np.empty_like(members)      # each member's successor
    expected[:-1] = members[1:]
    expected[last] = -1
    assert (mem.free_next[members] == expected).all()
    expected[1:] = members[:-1]            # ... and predecessor
    expected[last[:-1] + 1] = -1
    expected[0] = -1
    assert (mem.free_prev[members] == expected).all()


class _Machine(RuleBasedStateMachine):
    """What both kinds share: the after-every-rule comparison."""

    checked = 0     # invariant runs: one per rule step, one per example
    examples = 0

    def __init__(self) -> None:
        super().__init__()
        type(self).examples += 1

    def pairs(self) -> list[tuple[BuddyAllocator, RefBuddy]]:
        raise NotImplementedError

    @invariant()
    def agrees_with_the_reference(self) -> None:
        type(self).checked += 1
        mem = self.mem
        heads = {}
        for real, ref in self.pairs():
            lists_agree(mem, real, ref)
            heads.update(ref.free_heads)
        assert self.table.types.tolist() == self.ref_types
        assert region_sizes(mem.allocated_mask()) == ref_region_sizes(heads)
        free_order = mem.free_order
        real_blocks = np.bincount(free_order[free_order >= 0],
                                  minlength=MAX_ORDER + 1).tolist()
        ref_blocks = [0] * (MAX_ORDER + 1)
        for order, _ in heads.values():
            ref_blocks[order] += 1
        assert frag_metrics(real_blocks) == frag_metrics(ref_blocks)

    def teardown(self) -> None:
        self.check_consistency()


class RawMachine(_Machine):
    """One ``BuddyAllocator`` with fallback over 8 MiB, popping in
    ``PREFER`` order unless a call overrides it."""

    PREFER = "lifo"

    def __init__(self) -> None:
        super().__init__()
        self.mem = PhysicalMemory(MiB(8))
        self.table = PageblockTable(self.mem)
        self.buddy = BuddyAllocator(self.mem, self.table, VmStat(),
                                    prefer=self.PREFER)
        self.buddy.seed_free()
        self.ref_types = [MigrateType.MOVABLE] * self.mem.npageblocks
        self.ref = RefBuddy(self.ref_types, 0, self.mem.npageblocks,
                            self.PREFER, True)
        self.live: list[tuple[int, int]] = []
        self.check_consistency = self.buddy.check_consistency

    def pairs(self):
        return [(self.buddy, self.ref)]

    def _alloc(self, order, mt, prefer):
        want = self.ref.alloc(order, mt, prefer)
        assert self.buddy.alloc(order, mt, prefer=prefer) == want
        if want is not None:
            self.live.append((want, order))

    @rule(order=ORDERS, mt=MTS,
          prefer=st.sampled_from([None, None, "lifo", "low", "high"]))
    def alloc(self, order, mt, prefer):
        self._alloc(order, mt, prefer)

    @rule(order=ORDERS)
    def fallback_steal(self, order):
        """A request of the type with the fewest free frames."""
        by_type = free_frames_by_type(self.buddy)
        self._alloc(order, min(MigrateType, key=by_type.__getitem__), None)

    @rule(count=st.integers(1, 96), mt=MTS)
    def alloc_bulk(self, count, mt):
        want = self.ref.bulk(count, mt)
        assert self.buddy.alloc_bulk(count, mt).tolist() == want
        self.live += [(pfn, 0) for pfn in want]

    @precondition(lambda self: self.live)
    @rule(pick=PICK, k=st.integers(1, 6))
    def free(self, pick, k):
        for _ in range(min(k, len(self.live))):
            pfn, order = self.live.pop(pick % len(self.live))
            self.ref.free(pfn, order)
            assert self.buddy.free(pfn) == order


class LowMachine(RawMachine):
    PREFER = "low"


class HighMachine(RawMachine):
    PREFER = "high"


class KernelMachine(_Machine):
    """A kernel over 16 MiB on its fast paths: a request the model
    cannot serve without a slow path is not made."""

    def __init__(self) -> None:
        super().__init__()
        self.kernel = kernel = self.boot()
        self.mem, self.table = kernel.mem, kernel.pageblocks
        boundary = getattr(kernel, "layout", None)
        self.ref = RefKernel(kernel.mem.npageblocks, boundary
                             and boundary.boundary_block)
        self.ref_types = self.ref.blocks
        #: Model page -> the kernel's: a handle, or a bulk slot nobody
        #: has named yet (its batch and index).
        self.real: dict = {}
        self.check_consistency = kernel.check_consistency

    def pairs(self):
        return list(zip(self.kernel.allocators(), self.ref.regions))

    def named(self, page) -> PageHandle:
        real = self.real[page]
        if type(real) is tuple:
            real = self.real[page] = real[0][real[1]]
        return real

    def _pick(self, pick):
        pages = self.ref.pages
        return pages[pick % len(pages)]

    @invariant()
    def same_pages(self) -> None:
        """Every page the model knows sits where the kernel's does, and
        is freed exactly when the kernel's is (reclaim frees both)."""
        slots = self.kernel.handles._slots
        # Both sides spelled as a slot is: the PFN, complemented once
        # the page is freed.
        want = [~page.pfn if page.freed else page.pfn for page in self.real]
        assert [slots[real[0].start + real[1]] if type(real) is tuple
                else ~real.pfn if real.freed else real.pfn
                for real in self.real.values()] == want
        if min(want, default=0) < 0:
            self.real = {page: real for page, real in self.real.items()
                         if not page.freed}
        assert len(self.kernel.handles) == len(self.ref.pages)

    @rule(order=ORDERS, source=SOURCES, mt=MTS_OR_DEFAULT,
          pinned=st.booleans(), reclaimable=st.booleans())
    def alloc(self, order, source, mt, pinned, reclaimable):
        mt = DEFAULT_MIGRATETYPE[source] if mt is None else mt
        page = self.ref.alloc(order, source, mt, pinned, reclaimable)
        if page is None:
            return
        handle = self.kernel.alloc_pages(order, source, mt, pinned=pinned,
                                         reclaimable=reclaimable)
        assert handle.pfn == page.pfn
        self.real[page] = handle

    @rule(count=st.integers(1, 96), mt=MTS_OR_DEFAULT,
          reclaimable=st.booleans())
    def alloc_pages_bulk(self, count, mt, reclaimable):
        source = AllocSource.USER
        mt = MigrateType.MOVABLE if mt is None else mt
        pages = self.ref.bulk(count, source, mt, reclaimable)
        batch = self.kernel.alloc_pages_bulk(count, source, mt, reclaimable)
        if not pages:
            assert not batch
            return
        assert type(batch) is HandleBatch
        slots = self.kernel.handles._slots[batch.start:batch.stop]
        assert slots.tolist() == [page.pfn for page in pages]
        for i, page in enumerate(pages):
            self.real[page] = (batch, i)

    @precondition(lambda self: self.ref.pages)
    @rule(pick=PICK)
    def name(self, pick):
        """Build a bulk page's handle, as a driver reading it would."""
        self.named(self._pick(pick))

    @precondition(lambda self: self.ref.pages)
    @rule(pick=PICK, k=st.integers(1, 6))
    def free(self, pick, k):
        for _ in range(min(k, len(self.ref.pages))):
            page = self._pick(pick)
            handle = self.named(page)
            self.ref.free(page)
            self.kernel.free_pages(handle)

    @precondition(lambda self: self.ref.pages)
    @rule(pick=PICK)
    def pin(self, pick):
        page = self._pick(pick)
        if not page.pinned and self.ref.pin(page):
            self.kernel.pin_pages(self.named(page))

    @precondition(lambda self: self.ref.pinned)
    @rule(pick=PICK)
    def unpin(self, pick):
        pinned = sorted(self.ref.pinned, key=lambda page: page.seq)
        page = pinned[pick % len(pinned)]
        self.ref.unpin(page)
        self.kernel.unpin_pages(self.named(page))

    @rule(frames=st.integers(1, 300))
    def reclaim(self, frames):
        assert self.kernel.reclaim(frames) == self.ref.reclaim(frames)

    @rule(which=st.integers(0, 1), order=st.integers(1, MAX_ORDER),
          budget=st.integers(1, 256))
    def compact(self, which, order, budget):
        pairs = self.pairs()
        real, ref = pairs[which % len(pairs)]
        self.ref.compact(ref, order, budget)
        self.kernel.compactor.compact(real, self.kernel.handles,
                                      target_order=order,
                                      max_migrations=budget)

    @rule(pick=PICK)
    def memory_failure(self, pick):
        pfn = pick % self.mem.nframes
        owner = self.ref.owner(pfn)
        if (owner is not None and not owner.pinned
                and owner.source is AllocSource.USER):
            return      # would migrate: the model leaves that policy out
        self.ref.memory_failure(pfn)
        self.kernel.memory_failure(pfn)


class LinuxMachine(KernelMachine):
    @staticmethod
    def boot():
        return LinuxKernel(KernelConfig(mem_bytes=MiB(16)))


class ContiguitasMachine(KernelMachine):
    @staticmethod
    def boot():
        return ContiguitasKernel(ContiguitasConfig(mem_bytes=MiB(16)))


@pytest.mark.parametrize("machine", [
    RawMachine, LowMachine, HighMachine, LinuxMachine, ContiguitasMachine,
], ids=["lifo", "low", "high", "linux", "contiguitas"])
def test_the_fused_core_matches_the_reference(machine):
    """Seeded batches of examples until MIN_STEPS rule steps have run
    (hypothesis cuts an example short when its choices run long)."""
    machine.checked = machine.examples = 0
    for batch in itertools.count():
        if machine.checked - machine.examples >= MIN_STEPS:
            break
        run_state_machine_as_test(seed(batch)(machine), settings=settings(
            max_examples=EXAMPLES, stateful_step_count=STEPS_PER_EXAMPLE,
            deadline=None, database=None,
            suppress_health_check=list(HealthCheck)))
