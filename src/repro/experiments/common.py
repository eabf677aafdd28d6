"""Helpers the built-in spec families share: row lookups for claims and
reports, and the kernel boot and churn the simulating producers start
from.  Each simulating helper imports the simulator inside the
function, so a family module stays in the cold import tier until one of
its producers runs."""

from __future__ import annotations


def _col(rows: list, key: str, field: str) -> dict:
    """``{row[key]: row[field]}`` over *rows*, in row order."""
    return {row[key]: row[field] for row in rows}


def _row(rows: list, **match) -> dict:
    """The first of *rows* whose fields equal *match*."""
    return next(row for row in rows
                if all(row[key] == value for key, value in match.items()))


def _boot(kernel: str, mem_mib: int, **config):
    """A freshly booted ``"linux"`` or ``"contiguitas"`` kernel with
    *mem_mib* MiB of memory; *config* are further config fields."""
    from ..core import ContiguitasConfig, ContiguitasKernel
    from ..mm import KernelConfig, LinuxKernel
    from ..units import MiB

    if kernel == "linux":
        return LinuxKernel(KernelConfig(mem_bytes=MiB(mem_mib), **config))
    return ContiguitasKernel(
        ContiguitasConfig(mem_bytes=MiB(mem_mib), **config))


def _bounded_cache(service):
    """*service* with its page cache bounded at ~97 % machine
    utilisation and recency-based (address-random) eviction — the
    production regime in which unmovable allocations land at scattered
    just-evicted frames."""
    import dataclasses

    return dataclasses.replace(
        service, cache_opportunistic=False,
        cache_fraction=max(0.05, 0.97 - service.anon_fraction - 0.06))


def _churn(kernel, service, seed: int, steps: int):
    """*service* deployed on *kernel* and run for *steps* steps."""
    from ..workloads import Workload

    workload = Workload(kernel, service, seed=seed)
    workload.start()
    for _ in range(steps):
        workload.step()
    return workload
