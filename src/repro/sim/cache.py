"""Set-associative cache arrays and the sliced last-level cache.

These are *occupancy* models: they track which lines are present (LRU
replacement) so hit/miss behaviour and invalidation traffic are accurate,
without modelling bank conflicts or MSHR contention.  That is the right
fidelity for the paper's questions — where a request is serviced from, and
which lines a BusRdX must invalidate.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .params import ArchParams


class SetAssocCache:
    """A set-associative LRU cache of 64-byte lines.

    Addresses are line numbers (byte address >> 6); tags/sets derive from
    them.  ``access`` returns True on hit and installs on miss.
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int = 64,
                 label: str = "cache") -> None:
        nlines = size_bytes // line_bytes
        if ways <= 0 or nlines < ways or nlines % ways:
            raise ConfigurationError(
                f"{label}: bad geometry size={size_bytes} ways={ways}")
        self.nsets = nlines // ways
        self.ways = ways
        self.label = label
        # Per set: dict line -> last-use stamp (LRU).
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.nsets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _set_of(self, line: int) -> dict[int, int]:
        return self._sets[line % self.nsets]

    def access(self, line: int) -> bool:
        """Look up *line*; install it (evicting LRU) on miss."""
        self._stamp += 1
        entry = self._sets[line % self.nsets]
        if line in entry:
            entry[line] = self._stamp
            self.hits += 1
            return True
        self.misses += 1
        if len(entry) >= self.ways:
            victim = min(entry, key=entry.__getitem__)
            del entry[victim]
        entry[line] = self._stamp
        return False

    def contains(self, line: int) -> bool:
        return line in self._set_of(line)


def slice_of(line: int, nslices: int) -> int:
    """The slice-selection hash ``f`` (paper Fig. 9).

    Real processors use an XOR-reduction of the physical address; we fold
    the line number's bit groups so that consecutive lines of a page spread
    across slices, like the real hash.
    """
    h = line
    h ^= h >> 7
    h ^= h >> 13
    return h % nslices


class SlicedLLC:
    """A distributed last-level cache: one slice per core on a ring.

    Lines are homed on slices by :func:`slice_of`.  ``ring_distance``
    returns hop counts for the cross-slice writes Contiguitas-HW performs
    during a migration copy.
    """

    def __init__(self, params: ArchParams) -> None:
        self.params = params
        self.nslices = params.l3_slices
        self.slices = [
            SetAssocCache(params.l3_slice_size, params.l3_ways,
                          params.line_bytes, label=f"l3-slice{i}")
            for i in range(self.nslices)
        ]

    def home_slice(self, line: int) -> int:
        return slice_of(line, self.nslices)

    def access(self, line: int) -> tuple[bool, int]:
        """Access *line* at its home slice; returns (hit, slice index)."""
        idx = self.home_slice(line)
        return self.slices[idx].access(line), idx

    def ring_distance(self, a: int, b: int) -> int:
        """Hops between slices *a* and *b* on a bidirectional ring."""
        d = abs(a - b)
        return min(d, self.nslices - d)

    def cross_slice_write_cycles(self, src_slice: int, dst_slice: int) -> int:
        """Cycles for the write + ack of one migrated line between slices
        (paper Fig. 9 steps 2-3)."""
        hops = self.ring_distance(src_slice, dst_slice)
        return 2 * hops * self.params.ring_hop_cycles

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.slices)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.slices)
