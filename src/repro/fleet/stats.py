"""Statistics helpers for the fleet study (§2.4)."""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..errors import ConfigurationError


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient.

    The paper's headline non-result: uptime vs free-2 MiB-page count
    correlates at 0.00286 across the fleet.
    """
    if len(xs) != len(ys):
        raise ConfigurationError("series lengths differ")
    n = len(xs)
    if n < 2:
        raise ConfigurationError("need at least two samples")
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ConfigurationError("empty sample")
    if not 0 <= q <= 100:
        raise ConfigurationError("q outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)
