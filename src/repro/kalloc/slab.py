"""Slab allocator model (SLUB-style).

The slab allocator packs small kernel objects into pages obtained from the
buddy allocator; those pages are unmovable because in-kernel pointers
reference the objects directly (paper §2.5).  The fragmentation-relevant
behaviour modelled here is *partial slabs*: a slab page stays allocated as
long as a single object on it lives, so long-lived stragglers keep whole
unmovable pages alive — scattered wherever the buddy placed them.
"""

from __future__ import annotations

import numpy as np

from ..errors import DoubleFreeError, ReproError
from ..units import FRAME_SIZE
from ..mm.handle import PageHandle
from ..mm.page import AllocSource, MigrateType
from ..mm.sections import int64, rows_of
from ..telemetry import tracepoint

# Slab-page grabs/returns, not per-object traffic: the page events are
# what fragmentation analysis needs, and per-object would swamp the ring.
_tp_grow = tracepoint("kalloc.slab.grow")
_tp_shrink = tracepoint("kalloc.slab.shrink")


class ObjectRef:
    """Reference to one slab object; ``freed`` once it is released."""

    __slots__ = ("cache", "slab", "index", "freed")

    def __init__(self, cache: "SlabCache", slab: "_Slab", index: int) -> None:
        self.cache = cache
        self.slab = slab
        self.index = index
        self.freed = False


class _Slab:
    """One slab: a page allocation carved into equal-size objects."""

    __slots__ = ("handle", "free_slots", "capacity")

    def __init__(self, handle: PageHandle, capacity: int) -> None:
        self.handle = handle
        self.capacity = capacity
        self.free_slots = list(range(capacity))

    @property
    def in_use(self) -> int:
        return self.capacity - len(self.free_slots)


class SlabCache:
    """A named cache of equal-size objects (e.g. ``kmalloc-256``).

    Args:
        kernel: the kernel facade providing ``alloc_pages``/``free_pages``.
        name: cache name (diagnostics).
        object_size: bytes per object.
        reclaimable: reclaimable caches (dentry/inode style) are allocated
            with ``MigrateType.RECLAIMABLE``; others are UNMOVABLE.
        slab_order: buddy order per slab (SLUB picks higher orders for big
            objects; default fits >= 8 objects when possible).
    """

    def __init__(
        self,
        kernel,
        name: str,
        object_size: int,
        reclaimable: bool = False,
        slab_order: int | None = None,
    ) -> None:
        if object_size <= 0:
            raise ReproError(f"object_size must be positive, got {object_size}")
        self.kernel = kernel
        self.name = name
        self.object_size = object_size
        self.reclaimable = reclaimable
        if slab_order is None:
            # Pick the smallest order fitting at least 8 objects, capped at 3.
            slab_order = 0
            while (((FRAME_SIZE << slab_order) // object_size) < 8
                   and slab_order < 3):
                slab_order += 1
        self.slab_order = slab_order
        self.objects_per_slab = max(
            1, (FRAME_SIZE << slab_order) // object_size)
        self._partial: list[_Slab] = []
        self._full: set[_Slab] = set()
        self.total_objects = 0

    @property
    def migratetype(self) -> MigrateType:
        return (MigrateType.RECLAIMABLE if self.reclaimable
                else MigrateType.UNMOVABLE)

    def alloc_object(self) -> ObjectRef:
        """Allocate one object, grabbing a new slab page if needed."""
        if not self._partial:
            handle = self.kernel.alloc_pages(
                order=self.slab_order,
                source=AllocSource.SLAB,
                migratetype=self.migratetype,
            )
            self._partial.append(_Slab(handle, self.objects_per_slab))
            if _tp_grow.enabled:
                _tp_grow.emit(cache=self.name, pfn=handle.pfn,
                              order=self.slab_order)
        slab = self._partial[-1]
        index = slab.free_slots.pop()
        if not slab.free_slots:
            self._partial.pop()
            self._full.add(slab)
        self.total_objects += 1
        return ObjectRef(self, slab, index)

    def free_object(self, ref: ObjectRef) -> None:
        """Release an object; an empty slab returns its page to the buddy."""
        if ref.cache is not self:
            raise ReproError(f"object belongs to {ref.cache.name}")
        if ref.freed:
            raise DoubleFreeError(
                f"{self.name} object {ref.index} already freed",
                pfn=ref.slab.handle.pfn)
        ref.freed = True
        slab = ref.slab
        if slab in self._full:
            self._full.remove(slab)
            self._partial.append(slab)
        slab.free_slots.append(ref.index)
        self.total_objects -= 1
        if slab.in_use == 0:
            self._partial.remove(slab)
            if _tp_shrink.enabled:
                _tp_shrink.emit(cache=self.name, pfn=slab.handle.pfn,
                                order=self.slab_order)
            self.kernel.free_pages(slab.handle)


class SlabAllocator:
    """Registry of slab caches, mirroring kmalloc size classes."""

    #: (name, object bytes, reclaimable) for the default caches.
    DEFAULT_CACHES = (
        ("kmalloc-64", 64, False),
        ("kmalloc-256", 256, False),
        ("kmalloc-1k", 1024, False),
        ("kmalloc-4k", 4096, False),
        ("dentry", 192, True),
        ("inode", 640, True),
    )

    def __init__(self, kernel, caches=None) -> None:
        self.kernel = kernel
        self.caches: dict[str, SlabCache] = {}
        for name, size, reclaimable in (caches or self.DEFAULT_CACHES):
            self.caches[name] = SlabCache(kernel, name, size, reclaimable)

    def __getitem__(self, name: str) -> SlabCache:
        return self.caches[name]

    def snapshot(self, refs: list[ObjectRef]) -> dict:
        """Every cache's partial slabs (in order), full slabs and object
        count; each slab as ``[cache, page's registry slot, free
        slots]``;
        and *refs* — the object references a holder keeps — as slab,
        index and freed columns, in order.  A slab is numbered once, so
        every reference to it restores to one object."""
        caches = list(self.caches.values())
        index = {cache: i for i, cache in enumerate(caches)}
        ids: dict[_Slab, int] = {}
        owners: list[int] = []

        def slab_id(slab: _Slab, cache: SlabCache) -> int:
            if slab not in ids:
                ids[slab] = len(owners)
                owners.append(index[cache])
            return ids[slab]

        state = [{"partial": [slab_id(slab, cache) for slab in cache._partial],
                  "full": [slab_id(slab, cache) for slab in sorted(
                      cache._full, key=lambda slab: slab.handle.pfn)],
                  "objects": cache.total_objects} for cache in caches]
        objects = [slab_id(ref.slab, ref.cache) for ref in refs]
        return {"caches": state,
                "slabs": [[owner, slab.handle.slot, slab.free_slots]
                          for owner, slab in zip(owners, ids)],
                "objects.slab": int64(objects),
                "objects.index": int64([ref.index for ref in refs]),
                "objects.freed": int64([ref.freed for ref in refs])}

    def restore(self, state) -> list[ObjectRef]:
        """Load a :meth:`snapshot`; returns its object references."""
        caches = list(self.caches.values())
        if len(state["caches"]) != len(caches):
            raise ValueError(f"{len(state['caches'])} slab caches, "
                             f"expected {len(caches)}")
        owners, pages, free = (zip(*state["slabs"]) if state["slabs"]
                               else ((), (), ()))
        owners = [caches[i] for i in rows_of(owners, len(caches))]
        registry = self.kernel.handles
        slabs = list(map(_Slab, map(registry.resolve, rows_of(
            pages, len(registry._slots))), (cache.objects_per_slab
                                            for cache in owners)))
        for slab, free_slots in zip(slabs, free):
            slab.free_slots = list(free_slots)
        for cache, cached in zip(caches, state["caches"]):
            cache._partial = [slabs[i] for i in rows_of(cached["partial"],
                                                        len(slabs))]
            cache._full = {slabs[i] for i in rows_of(cached["full"],
                                                     len(slabs))}
            cache.total_objects = cached["objects"]
        sids = rows_of(state["objects.slab"], len(slabs))
        index, freed = state["objects.index"], state["objects.freed"]
        if not len(sids) == len(index) == len(freed):
            raise ValueError("slab object columns differ in length")
        refs = list(map(ObjectRef, map(owners.__getitem__, sids),
                        map(slabs.__getitem__, sids), index.tolist()))
        for i in np.flatnonzero(freed == 1).tolist():
            refs[i].freed = True
        return refs
