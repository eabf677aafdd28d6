"""Migration-interference model: NGINX and memcached under Contiguitas-HW
(paper §5.3 "Performance").

The experiment: the application serves requests at peak throughput with no
slack while Contiguitas-HW migrates its *own* networking buffers underneath
it, at two rates:

* **Regular** — 100 migrations/s, the expected unmovable-page movement;
* **Very High** — 1000/s, the highest movable-page rate ever observed in
  production, applied to unmovable pages as a worst case.

With the **noncacheable** design, a page under migration is served from
the LLC instead of the private caches until the migration retires (copy
plus the lazy-invalidation window), so accesses to it pay the L1→LLC
latency difference.  With the **cacheable** design, private caching stays
enabled and the cost is a handful of one-time invalidations — effectively
zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.hwext.metadata import AccessMode
from ..sim.params import DEFAULT_PARAMS, KERNEL_ENTRY_GAP_CYCLES, ArchParams

#: The paper's two migration rates (§5.3).
REGULAR_RATE = 100.0
VERY_HIGH_RATE = 1000.0


@dataclass(frozen=True)
class ServerApp:
    """An open-source request-serving application (NGINX / memcached).

    Attributes:
        name: application name.
        app_cores: cores the application saturates.
        buffer_access_intensity: fraction of cycles issuing accesses to
            any given hot networking-buffer page while it is in use.
        huge_page_sensitive: whether 2 MiB pages measurably help it
            (memcached: yes; NGINX: no, §5.3).
    """

    name: str
    app_cores: int = 8
    buffer_access_intensity: float = 0.02
    huge_page_sensitive: bool = False


NGINX = ServerApp("nginx", buffer_access_intensity=0.016)
MEMCACHED = ServerApp("memcached", buffer_access_intensity=0.024,
                      huge_page_sensitive=True)


def migration_window_cycles(params: ArchParams) -> int:
    """How long a page stays in the noncacheable state: the copy plus the
    worst-case lazy local-invalidation window (the kernel-entry gap at
    production syscall rates, §5.3)."""
    from ..sim.shootdown import page_copy_cycles

    return page_copy_cycles(params) + KERNEL_ENTRY_GAP_CYCLES


def interference_overhead(app: ServerApp, migrations_per_second: float,
                          mode: AccessMode) -> float:
    """Throughput overhead fraction caused by buffer migrations.

    Noncacheable: every access to a page under migration is redirected to
    the LLC, paying the L1→L3 latency difference for the whole migration
    window.  Cacheable: only the one-time BusRdX invalidations of at most
    one private copy per line — amortised to effectively zero.
    """
    params = DEFAULT_PARAMS
    total_cycles_per_s = params.freq_ghz * 1e9 * app.app_cores
    if mode is AccessMode.CACHEABLE:
        # 64 lines re-fetched once after invalidation, worst case.
        penalty = params.lines_per_page * params.l2_latency
    else:
        window = migration_window_cycles(params)
        extra_latency = params.l3_latency - params.l1_latency
        penalty = window * app.buffer_access_intensity * extra_latency
    return migrations_per_second * penalty / total_cycles_per_s
