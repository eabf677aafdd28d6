"""The production-service models (paper §4-5).

Each spec calibrates a :class:`~repro.workloads.base.WorkloadSpec` to the
behaviour the paper reports for that service:

* **Web** — Meta's web server, the largest deployment: huge code footprint
  (instruction walks matter), a multi-GiB heap with poor data locality
  (only 1 GiB pages fix data walks, §2.3), HugeTLB-aware, networking heavy.
* **Cache A / Cache B** — the two largest in-memory caches; Cache B is a
  memcached fork.  Enormous anonymous heaps, hot network stacks, THP
  sensitive.
* **CI** — continuous integration: build/test jobs with heavy filesystem
  and slab churn and comparatively little anonymous memory; the paper's
  worst unmovable offender (Fig. 11).
* **Ads** — appears in Fig. 3's page-walk characterisation only.

Trace footprints are the services' *virtual* working sets and stay at
production scale regardless of the simulated machine's physical memory.
"""

from __future__ import annotations

from .tracespec import TraceSpec
from .base import WorkloadSpec
from .registry import register_service

WEB = WorkloadSpec(
    name="Web",
    anon_fraction=0.50,
    cache_fraction=0.22,
    wants_1g=True,
    gigapages_wanted=4,
    net_rate_per_gib=50.0,
    net_lifetime_steps=30.0,
    slab_rate_per_gib=20.0,
    fs_rate_per_gib=8.0,
    pin_rate_per_gib=0.8,
    cache_churn_per_gib=10.0,
    data_trace=TraceSpec(footprint_bytes=40 << 30, hot_fraction=0.0001,
                         hot_weight=0.9975, stride_locality=0.25),
    instr_trace=TraceSpec(footprint_bytes=512 << 20, hot_fraction=0.008,
                          hot_weight=0.998, stride_locality=0.55),
    data_access_per_instr=0.40,
    instr_fetch_per_instr=0.25,
    base_cpi=0.8,
)

CACHE_A = WorkloadSpec(
    name="CacheA",
    anon_fraction=0.62,
    cache_fraction=0.12,
    net_rate_per_gib=60.0,
    net_lifetime_steps=25.0,
    slab_rate_per_gib=16.0,
    fs_rate_per_gib=3.0,
    pin_rate_per_gib=1.0,
    cache_churn_per_gib=6.0,
    data_trace=TraceSpec(footprint_bytes=36 << 30, hot_fraction=0.0001,
                         hot_weight=0.9985, stride_locality=0.2),
    instr_trace=TraceSpec(footprint_bytes=96 << 20, hot_fraction=0.04,
                          hot_weight=0.9985, stride_locality=0.6),
    data_access_per_instr=0.5,
    instr_fetch_per_instr=0.18,
    base_cpi=0.7,
)

CACHE_B = WorkloadSpec(
    name="CacheB",
    anon_fraction=0.58,
    cache_fraction=0.12,
    net_rate_per_gib=50.0,
    net_lifetime_steps=25.0,
    slab_rate_per_gib=14.0,
    fs_rate_per_gib=3.0,
    pin_rate_per_gib=0.8,
    cache_churn_per_gib=6.0,
    data_trace=TraceSpec(footprint_bytes=30 << 30, hot_fraction=0.00015,
                         hot_weight=0.999, stride_locality=0.25),
    instr_trace=TraceSpec(footprint_bytes=64 << 20, hot_fraction=0.06,
                          hot_weight=0.999, stride_locality=0.6),
    data_access_per_instr=0.5,
    instr_fetch_per_instr=0.15,
    base_cpi=0.7,
)

CI = WorkloadSpec(
    name="CI",
    anon_fraction=0.30,
    cache_fraction=0.40,
    net_rate_per_gib=25.0,
    net_lifetime_steps=20.0,
    slab_rate_per_gib=60.0,
    slab_lifetime_steps=250.0,
    fs_rate_per_gib=30.0,
    pin_rate_per_gib=0.3,
    cache_churn_per_gib=25.0,
    data_trace=TraceSpec(footprint_bytes=8 << 30, hot_fraction=0.0005,
                         hot_weight=0.998, stride_locality=0.35),
    instr_trace=TraceSpec(footprint_bytes=128 << 20, hot_fraction=0.03,
                          hot_weight=0.998, stride_locality=0.5),
    data_access_per_instr=0.42,
    instr_fetch_per_instr=0.2,
    base_cpi=0.9,
)

ADS = WorkloadSpec(
    name="Ads",
    anon_fraction=0.55,
    cache_fraction=0.15,
    net_rate_per_gib=45.0,
    data_trace=TraceSpec(footprint_bytes=32 << 30, hot_fraction=0.0001,
                         hot_weight=0.998, stride_locality=0.25),
    instr_trace=TraceSpec(footprint_bytes=256 << 20, hot_fraction=0.01,
                          hot_weight=0.997, stride_locality=0.5),
    data_access_per_instr=0.45,
    instr_fetch_per_instr=0.22,
    base_cpi=0.8,
)

RDMA = WorkloadSpec(
    name="RDMA",
    anon_fraction=0.45,
    cache_fraction=0.15,
    net_rate_per_gib=30.0,
    net_lifetime_steps=25.0,
    # Kernel-bypass/RDMA: buffers are pinned user memory that stays
    # pinned "for the lifetime of the application" (§2.5) — the dynamic
    # pollution Contiguitas's migrate-then-pin is built for.
    pin_rate_per_gib=12.0,
    pin_lifetime_steps=5000.0,
    slab_rate_per_gib=16.0,
    fs_rate_per_gib=2.0,
    cache_churn_per_gib=8.0,
    data_trace=TraceSpec(footprint_bytes=24 << 30, hot_fraction=0.0002,
                         hot_weight=0.998, stride_locality=0.3),
    instr_trace=TraceSpec(footprint_bytes=64 << 20, hot_fraction=0.05,
                          hot_weight=0.999, stride_locality=0.6),
    data_access_per_instr=0.5,
    instr_fetch_per_instr=0.15,
    base_cpi=0.7,
)

#: The services Fig. 10/11/12 evaluate end to end.
PRODUCTION_SERVICES = (WEB, CACHE_A, CACHE_B)

#: The Fig. 3 page-walk characterisation set.
WALK_CHARACTERISATION = (WEB, CACHE_A, CACHE_B, ADS)

# The typed front door: kebab-case registry names; the specs' CamelCase
# display names stay usable as lookup aliases (see registry.py).
register_service("web", WEB)
register_service("cache-a", CACHE_A)
register_service("cache-b", CACHE_B)
register_service("ci", CI)
register_service("ads", ADS)
register_service("rdma", RDMA)
