"""Kernel event counters, in the spirit of ``/proc/vmstat``.

Every interesting memory-management event increments a named counter here.
Benchmarks and tests read these to verify behaviour (e.g. that Contiguitas
performs zero pageblock steals while Linux performs many).

:class:`VmStat` is a thin facade over the unified telemetry layer's
:class:`~repro.telemetry.metrics.CounterSet`: it inherits the uniform
``snapshot()`` / ``merge()`` / ``delta()`` surface and adds only
the event-name constants the kernel modules share.  The sorted
``items()`` view is cached between ``inc`` calls — tests and reports
read it far more often than the hot paths bump it.
"""

from __future__ import annotations

from ..telemetry.metrics import CounterSet


class VmStat(CounterSet):
    """A named-event counter with dict-like read access.

    See :class:`~repro.telemetry.metrics.CounterSet` for the full
    surface; ``delta`` accepts either a previous :meth:`snapshot` dict or
    another :class:`VmStat` (the form the manifest diff uses).
    """

    __slots__ = ()


# Event name constants (kept together so tests don't embed string typos).
ALLOC_SUCCESS = "alloc_success"
ALLOC_FAIL = "alloc_fail"
ALLOC_FALLBACK = "alloc_fallback"
PAGEBLOCK_STEAL = "pageblock_steal"
PAGES_FREED = "pages_freed"
COMPACT_RUNS = "compact_runs"
COMPACT_MIGRATED = "compact_pages_migrated"
COMPACT_FAIL = "compact_pages_failed"
MIGRATE_SUCCESS = "migrate_success"
MIGRATE_FAIL = "migrate_fail"
TLB_SHOOTDOWNS = "tlb_shootdowns"
RECLAIM_RUNS = "reclaim_runs"
PAGES_RECLAIMED = "pages_reclaimed"
THP_ALLOC = "thp_alloc"
THP_FALLBACK = "thp_fallback"
HUGETLB_1G_ALLOC = "hugetlb_1g_alloc"
HUGETLB_1G_FAIL = "hugetlb_1g_fail"
REGION_EXPAND = "region_expand"
REGION_SHRINK = "region_shrink"
REGION_EXPAND_BLOCKED = "region_expand_blocked"
PIN_MIGRATIONS = "pin_migrations"
HW_MIGRATIONS = "hw_migrations"
MIGRATE_RETRY = "migrate_retry"
MEMORY_FAILURE = "memory_failure"
MEMORY_FAILURE_OFFLINED = "memory_failure_offlined"
MEMORY_FAILURE_FATAL = "memory_failure_fatal"
OOM_RESCUE = "oom_rescue"
