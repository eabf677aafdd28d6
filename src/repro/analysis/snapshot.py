"""Physical-memory snapshots: persist and reload scan state.

The paper's fleet study scans tens of thousands of machines and analyses
the dumps offline.  :func:`save_snapshot` captures a machine's frame-level
state (the same arrays every scan reads) into a compressed ``.npz``;
:func:`load_snapshot` restores a read-only :class:`MemorySnapshot` that
answers the same contiguity queries without the kernel that produced it —
so a slow fleet run can be analysed repeatedly for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..mm.physmem import PhysicalMemory
from ..units import FRAME_SIZE

#: Format marker for forward compatibility.
SNAPSHOT_VERSION = 1


def save_snapshot(mem: PhysicalMemory, path: str,
                  meta: dict[str, str] | None = None) -> None:
    """Write a machine's frame state to *path* (``.npz``)."""
    arrays = {
        "version": np.array([SNAPSHOT_VERSION]),
        "flags": mem.flags,
        "migratetype": mem.migratetype,
        "source": mem.source,
        "alloc_order": mem.alloc_order,
    }
    for key, value in (meta or {}).items():
        arrays[f"meta_{key}"] = np.array([value])
    np.savez_compressed(path, **arrays)


@dataclass
class MemorySnapshot:
    """A restored frame-state scan, API-compatible with the subset of
    :class:`PhysicalMemory` the analysis functions consume."""

    flags: np.ndarray
    migratetype: np.ndarray
    source: np.ndarray
    alloc_order: np.ndarray
    meta: dict[str, str]

    @property
    def nframes(self) -> int:
        return int(self.flags.size)

    @property
    def size_bytes(self) -> int:
        return self.nframes * FRAME_SIZE

    # The masks read only ``flags``/``source``, which a snapshot carries
    # under the same names: borrow them, ``(start, end)`` range included.
    allocated_mask = PhysicalMemory.allocated_mask
    pinned_mask = PhysicalMemory.pinned_mask
    unmovable_mask = PhysicalMemory.unmovable_mask
    free_frames = PhysicalMemory.free_frames


def load_snapshot(path: str) -> MemorySnapshot:
    """Load a snapshot written by :func:`save_snapshot`."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"][0])
        if version != SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"snapshot version {version} not supported")
        meta = {
            key[len("meta_"):]: str(data[key][0])
            for key in data.files if key.startswith("meta_")
        }
        return MemorySnapshot(
            flags=data["flags"].copy(),
            migratetype=data["migratetype"].copy(),
            source=data["source"].copy(),
            alloc_order=data["alloc_order"].copy(),
            meta=meta,
        )
