"""Statistics the benchmark reports: percentiles, spreads, digests.

Pure functions with no dependency on the simulator, so the unit tests
and ``run.py --compare`` can import them without ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (choosing-metrics: "the highest percentile that has at
#: least ten samples beyond it").
TAIL_MIN_BEYOND = 10

#: Candidate tail percentiles, lowest first.
TAIL_CANDIDATES = (75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile *q* (0-100) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least
    :data:`TAIL_MIN_BEYOND` of *n* samples beyond it; None when even
    p75 has fewer (n < 40)."""
    best = None
    for q in TAIL_CANDIDATES:
        # In tenths of a percent, so 0.1 % of 10 000 is exactly 10.
        if n * round((100.0 - q) * 10) >= TAIL_MIN_BEYOND * 1000:
            best = q
    return best


def summarize(values) -> dict:
    """Median, the admissible tail percentile and the sample count."""
    values = list(values)
    out = {"n": len(values), "p50": percentile(values, 50.0)}
    q = tail_percentile(len(values))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the driver's steadiness figure."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _canonical(value):
    """JSON-safe, order-free form of a simulated output.

    Floats are spelled with ``repr`` so the digest pins every bit;
    enum keys (``AllocSource``) collapse to their names; tuples become
    lists; dict order never matters."""
    if isinstance(value, dict):
        return {str(getattr(k, "name", k)): _canonical(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    if hasattr(value, "item"):          # numpy scalar
        return _canonical(value.item())
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def canonical_json(value) -> str:
    """The one spelling of a simulated output that gets hashed."""
    return json.dumps(_canonical(value), sort_keys=True,
                      separators=(",", ":"))


def sim_digest(value) -> str:
    """sha256 of the canonical JSON of a workload's simulated outputs."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()
