"""Timing of work items against an interleaved host-speed probe.

The sandbox this benchmark runs in has no steady clock rate: the same
pure-Python loop takes 57-93 ms within one minute while process CPU
time equals wall time, i.e. the core itself speeds up and slows down
(neighbours on the host, not scheduling).  Raw wall time of a fixed
10 s of work therefore spreads by 7-20 % between runs of the *same*
code, which no repetition count within the driver's time cap averages
away.

So every host time the benchmark reports is a **reference-speed**
time: a short fixed probe runs before and after each item, and the
item's wall time is scaled by ``PROBE_REF_S / probe``.  Slow-downs the
probe and the item share cancel; on recorded series this cut the
spread of 10 s blocks from 7.5 % to 2-5 % depending on item length.
The probe is benchmark code and never changes with the program, so
parent and change are scaled alike.  Raw wall times and the speed
factor are printed next to every metric.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

#: What one probe pass takes at reference speed (the median over a long
#: recording on the 2-CPU reference box).  Only fixes the scale of the
#: reported numbers; ratios between runs do not depend on it.
PROBE_REF_S = 0.0008

#: Passes per probe; the median pass is the probe's value, which drops
#: a pass hit by a stall and the cache-cold first pass after a big item.
PROBE_PASSES = 5

#: A probe older than this is not reused as the next item's "before".
PROBE_FRESH_S = 0.02


def _probe_pass() -> float:
    """One fixed slice of interpreter work: integer arithmetic, dict
    stores, list building and sorting — the mix the simulator runs."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(6000):
        acc += i * i % 7
        table[i & 255] = acc
    keys = [(i * 7) % 13 for i in range(1500)]
    keys.sort()
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds of the median of :data:`PROBE_PASSES` probe passes."""
    return statistics.median(_probe_pass() for _ in range(PROBE_PASSES))


@dataclass
class Item:
    """One timed piece of work."""

    label: str
    units: int          # work units done (steps, calls, requests, ...)
    wall_s: float       # as measured
    probe_s: float      # mean of the probes around it

    @property
    def speed(self) -> float:
        """Host speed factor while the item ran (>1 = slower host)."""
        return self.probe_s / PROBE_REF_S

    @property
    def ref_s(self) -> float:
        """Wall time scaled to reference host speed."""
        return self.wall_s / self.speed


class Meter:
    """Times items back to back, probing host speed between them."""

    def __init__(self) -> None:
        self.items: list[Item] = []
        #: Simulated totals a workload tallies next to its items
        #: (cycles, instructions), scoped like the items themselves.
        self.counts: dict[str, float] = {}
        self._last_probe: tuple[float, float] | None = None
        self._t0: float | None = None

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def _probe_before(self) -> float:
        last = self._last_probe
        if last is not None and time.perf_counter() - last[0] < PROBE_FRESH_S:
            return last[1]
        return probe()

    def timed(self, label: str, units: int, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one item and return
        ``(result, item)``.  *units* may be a callable taking the
        result, for work whose size is only known afterwards."""
        before = self._probe_before()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = probe()
        self._last_probe = (time.perf_counter(), after)
        if callable(units):
            units = units(result)
        item = Item(label, int(units), wall, (before + after) / 2.0)
        return result, item

    def item(self, label: str, units, fn, *args, **kwargs):
        """:meth:`timed`, and the item counts toward the metrics."""
        result, item = self.timed(label, units, fn, *args, **kwargs)
        self.items.append(item)
        return result

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    # -- aggregates ------------------------------------------------------

    def total_units(self) -> int:
        return sum(i.units for i in self.items)

    def total_wall_s(self) -> float:
        return sum(i.wall_s for i in self.items)

    def total_ref_s(self) -> float:
        return sum(i.ref_s for i in self.items)

    def median_speed(self) -> float:
        return statistics.median(i.speed for i in self.items)
