"""Server-fragmentation pre-conditioning (paper §5.1).

The paper's two evaluation setups:

* **Full Fragmentation** — "a workload lands on a server whose memory is
  already fully fragmented" (23 % of Meta's fleet).  :func:`fragment_fully`
  reproduces the paper's fragmentation process: fill memory with
  interleaved movable and unmovable allocations, then release the movable
  ones.  What remains is a sparse lattice of unmovable pages poisoning
  (nearly) every 2 MiB block.

* **Partial Fragmentation** — "the same workload previously ran on the
  server and was restarted" (the common case after a code deployment).
  :func:`fragment_partially` runs the workload to steady state and stops
  it, leaving the kernel-side residue behind.
"""

from __future__ import annotations

import random

from ..errors import OutOfMemoryError
from ..mm.page import AllocSource, MigrateType
from .base import Workload, WorkloadSpec

#: Share of memory the Full Fragmentation filler punches with unmovable
#: pages that outlive it.
FULL_UNMOVABLE_RESIDUE = 0.06
#: Share of live kernel allocations each Partial Fragmentation restart
#: leaks (:meth:`Workload.stop`).
PARTIAL_KERNEL_RESIDUE = 0.6


def fragment_fully(kernel) -> int:
    """Fully fragment a kernel's memory; returns residual unmovable frames.

    Interleaves movable and unmovable order-0 allocations until memory is
    exhausted, then frees every movable page and most unmovable ones.  On
    stock Linux the surviving unmovable pages sit in (almost) every
    pageblock; on Contiguitas they are confined by construction, so the
    same pre-conditioning leaves the movable region clean — which is
    exactly the paper's point that Contiguitas behaves identically under
    Full and Partial fragmentation.
    """
    rng = random.Random(0)
    sources = (AllocSource.NETWORKING, AllocSource.SLAB,
               AllocSource.FILESYSTEM, AllocSource.PAGETABLE)
    # Phase 1: fill memory completely with movable pages — the state of a
    # server whose page cache has consumed everything.
    movable = []
    try:
        while True:
            movable.append(kernel.alloc_pages(0))
    except OutOfMemoryError:
        pass
    # Phase 2: punch random holes and immediately refill each with an
    # unmovable allocation.  With memory otherwise full, the kernel has no
    # choice but to place the unmovable page exactly where the hole was —
    # this is how production churn sprinkles unmovable pages everywhere.
    rng.shuffle(movable)
    holes = int(len(movable) * FULL_UNMOVABLE_RESIDUE * 2)
    unmovable = []
    for handle in movable[:holes]:
        kernel.free_pages(handle)
        unmovable.append(kernel.alloc_pages(
            0, source=rng.choice(sources),
            migratetype=MigrateType.UNMOVABLE))
    # Phase 3: the filler process exits — movable pages go away, and about
    # half the unmovable ones turn out to be long-lived residue.
    for handle in movable[holes:]:
        kernel.free_pages(handle)
    survivors = 0
    for handle in unmovable:
        if rng.random() < 0.5:
            kernel.free_pages(handle)
        else:
            survivors += handle.nframes
    return survivors


def fragment_partially(kernel, spec: WorkloadSpec, steps: int = 300,
                       seed: int = 0, cycles: int = 2) -> None:
    """Deploy-and-restart *spec* repeatedly (code pushes, paper §5.1).

    Each cycle runs the service to (approach) steady state and restarts
    it.  A restart frees the service's heap but leaves the kernel's
    allocation history — straggler buffers, shared slab, co-tenant page
    tables — and the page cache immediately re-expands over the freed
    memory (the files are still hot), so the next deployment allocates
    through reclaim against a fragmented, full machine rather than into
    a pristine one.

    The warm-up deployments run without 1 GiB reservations (previous
    tenants were ordinary THP-backed instances): their heaps spread over
    all of memory, so kernel residue scatters across the whole address
    space — including the ranges a later 1 GiB reservation would need.
    """
    import dataclasses

    from ..errors import OutOfMemoryError
    from ..mm import vmstat as ev

    warmup_spec = dataclasses.replace(spec, wants_1g=False)
    for cycle in range(cycles):
        warmup = Workload(kernel, warmup_spec, seed=seed + cycle)
        warmup.start()
        for _ in range(steps):
            warmup.step()
        warmup.stop(kernel_residue=PARTIAL_KERNEL_RESIDUE)
        # Page-cache re-expansion: hot files refill the freed memory.
        before = kernel.stat[ev.PAGES_RECLAIMED]
        try:
            while (kernel.free_frames() > 0
                   and kernel.stat[ev.PAGES_RECLAIMED] == before):
                kernel.alloc_pages(0, reclaimable=True)
        except OutOfMemoryError:  # pragma: no cover
            break
