"""The shape of a service's memory-access stream.

A leaf module (no numpy, no simulator): every
:class:`~repro.workloads.base.WorkloadSpec` carries two of these, and
:func:`repro.sim.trace.generate_addresses` turns one into addresses, so
a fleet or workload import does not load the hardware simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class TraceSpec:
    """Shape of one access stream.

    Attributes:
        footprint_bytes: size of the touched address range.
        hot_fraction: fraction of pages forming the hot set.
        hot_weight: fraction of accesses that hit the hot set.
        stride_locality: probability that an access repeats the previous
            page (models spatial runs; raises L1-TLB hit rate).
        zipf_exponent: when set (> 1), pages are drawn from a bounded
            Zipf distribution over the footprint instead of the hot/cold
            mixture — a smooth multi-scale locality profile where every
            increase in TLB reach captures an incremental access share.
    """

    footprint_bytes: int
    hot_fraction: float = 0.1
    hot_weight: float = 0.7
    stride_locality: float = 0.3
    zipf_exponent: float | None = None

    def __post_init__(self) -> None:
        if self.footprint_bytes <= 0:
            raise ConfigurationError("footprint must be positive")
        for name in ("hot_fraction", "hot_weight", "stride_locality"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name}={v} outside [0,1]")
        if self.zipf_exponent is not None and self.zipf_exponent <= 1.0:
            raise ConfigurationError("zipf_exponent must exceed 1")
