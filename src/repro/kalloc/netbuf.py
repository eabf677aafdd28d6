"""Networking buffer allocation model.

Networking is the dominant unmovable source at Meta (73 % of unmovable
pages, paper Fig. 6): send/receive buffers travel between the application
socket layer and the NIC, so their pages are device-visible and cannot be
blocked for a software migration.  The model has two parts:

* **persistent rings** — per-queue RX/TX descriptor rings and buffer pools
  sized by queue count and depth (grows with core count and NIC bandwidth,
  §2.5), allocated once and held for the lifetime of the stack;
* **transient buffers** — per-request skb-like allocations with short,
  heavy-tailed lifetimes, constantly churning.

Buffers may additionally be *pinned* (kernel-bypass / RDMA / zero-copy),
which on stock Linux freezes whichever movable page they happen to occupy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DoubleFreeError, SimInvariantError
from ..mm.handle import PageHandle
from ..mm.page import AllocSource, MigrateType
from ..telemetry import tracepoint

_tp_alloc = tracepoint("kalloc.net.alloc")
_tp_free = tracepoint("kalloc.net.free")


@dataclass(frozen=True)
class NetworkQueueConfig:
    """Sizing of the persistent networking footprint.

    Defaults approximate one RX+TX queue pair per core with a 1 MiB buffer
    pool each on the simulated 8-core machine.
    """

    nr_queues: int = 8
    ring_frames_per_queue: int = 64
    buffer_order: int = 0


class NetworkBufferPool:
    """Allocates and recycles networking buffers on a kernel facade."""

    def __init__(self, kernel,
                 config: NetworkQueueConfig | None = None) -> None:
        self.kernel = kernel
        self.config = config or NetworkQueueConfig()
        self.rings: list[PageHandle] = []
        # Insertion-ordered set keyed by the handle itself (identity
        # hash, the ReclaimLRU idiom): O(1) release, and no order is
        # ever read back — only the count and a frame sum.
        self.transient: dict[PageHandle, None] = {}

    def bring_up(self) -> None:
        """Allocate the persistent per-queue rings (driver initialisation)."""
        if self.rings:
            raise SimInvariantError("network rings already up")
        cfg = self.config
        for _ in range(cfg.nr_queues):
            remaining = cfg.ring_frames_per_queue
            while remaining > 0:
                order = min(cfg.buffer_order, 3)
                handle = self.kernel.alloc_pages(
                    order=order,
                    source=AllocSource.NETWORKING,
                    migratetype=MigrateType.UNMOVABLE,
                )
                self.rings.append(handle)
                remaining -= handle.nframes

    def tear_down(self) -> None:
        """Free the persistent rings (driver removal)."""
        for handle in self.rings:
            self.kernel.free_pages(handle)
        self.rings.clear()

    def alloc_buffer(self, order: int = 0, pinned: bool = False) -> PageHandle:
        """Allocate one transient send/receive buffer.

        With ``pinned=True`` the buffer models zero-copy / RDMA: the page
        is pinned after allocation, exercising the kernel's pin path
        (Contiguitas migrates it into the unmovable region first, §3.2).
        """
        if pinned:
            # Zero-copy pins *user* pages in place; allocate as movable
            # user memory and then pin, which is the polluting pattern.
            handle = self.kernel.alloc_pages(
                order=order, source=AllocSource.USER,
                migratetype=MigrateType.MOVABLE)
            self.kernel.pin_pages(handle)
        else:
            handle = self.kernel.alloc_pages(
                order=order,
                source=AllocSource.NETWORKING,
                migratetype=MigrateType.UNMOVABLE,
            )
        self.transient[handle] = None
        if _tp_alloc.enabled:
            _tp_alloc.emit(pfn=handle.pfn, order=order, pinned=pinned)
        return handle

    def free_buffer(self, handle: PageHandle) -> None:
        """Release a transient buffer."""
        # The set's values are None: only a handle it lacks pops True.
        if self.transient.pop(handle, True):
            raise DoubleFreeError("transient buffer already freed",
                                  pfn=handle.pfn)
        if _tp_free.enabled:
            _tp_free.emit(pfn=handle.pfn, order=handle.order,
                          pinned=handle.pinned)
        if handle.pinned:
            self.kernel.unpin_pages(handle)
        self.kernel.free_pages(handle)
