"""Synthetic memory-access trace generation.

The paper measures page-walk overheads on production services with
hardware counters; we substitute parametric access streams whose two knobs
— footprint and locality — control TLB behaviour the same way.  Traces
are hot/cold mixtures: a hot subset of pages receives most accesses
(temporal locality), the rest are spread uniformly (the long tail that
defeats TLB capacity on big-footprint services).
"""

from __future__ import annotations

import numpy as np

from ..workloads.tracespec import TraceSpec


def generate_addresses(spec: TraceSpec, n: int,
                       seed: int = 0) -> np.ndarray:
    """Generate *n* virtual byte addresses following *spec*.

    Vectorised: draws page indices from the hot/cold mixture, then applies
    stride repeats, then scatters a random line offset within each page.
    """
    rng = np.random.default_rng(seed)
    npages = max(1, spec.footprint_bytes // 4096)

    if spec.zipf_exponent is not None:
        # Bounded Zipf: draw from the unbounded law and resample the
        # overflow tail uniformly (keeps the head exact, bounds the rest).
        pages = rng.zipf(spec.zipf_exponent, n) - 1
        overflow = pages >= npages
        pages[overflow] = rng.integers(0, npages, int(overflow.sum()))
    else:
        hot_pages = max(1, int(npages * spec.hot_fraction))
        is_hot = rng.random(n) < spec.hot_weight
        pages = np.where(
            is_hot,
            rng.integers(0, hot_pages, n),
            rng.integers(0, npages, n),
        )
    # Stride locality: repeat the previous page with given probability.
    repeat = rng.random(n) < spec.stride_locality
    repeat[0] = False
    idx = np.arange(n)
    idx[repeat] = 0
    np.maximum.accumulate(idx, out=idx)
    pages = pages[idx]

    offsets = rng.integers(0, 4096 // 64, n) * 64
    return pages.astype(np.int64) * 4096 + offsets
