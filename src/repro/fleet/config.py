"""FleetConfig: the typed front door for one fleet-sampling campaign.

A campaign's knobs span sampling and parallelism.  :class:`FleetConfig`
gathers them into one frozen, validated value that can be stored,
hashed into an experiment cache key, recorded in a run manifest, and
varied with :func:`dataclasses.replace` — the same shape as
:class:`~repro.faults.FaultPlan`.

Pass it to :func:`repro.fleet.run_fleet`::

    from repro.fleet import FleetConfig, ServerConfig, run_fleet
    from repro.units import MiB

    sample = run_fleet(FleetConfig(
        n_servers=8,
        server=ServerConfig(mem_bytes=MiB(256)),
        base_seed=7,
    ))
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .engine import resolve_workers
from .server import ServerConfig


@dataclass(frozen=True)
class FleetConfig:
    """Everything one fleet-sampling campaign needs, in one value.

    Attributes:
        n_servers: how many independent servers to simulate and scan.
        server: per-server knobs (memory size, uptime range, fault
            plan); ``None`` means :class:`ServerConfig` defaults.
        base_seed: server *i* is seeded ``base_seed + i`` whatever the
            worker count, so results are bit-identical across runs.
        workers: process count (``None`` = ``REPRO_FLEET_WORKERS`` or
            cpu count; 0/1 = serial).  Validated eagerly so a typo
            fails at construction, not mid-campaign.

    Supervision runs on the engine's constants (retry budget, backoff,
    automatic chunking; :mod:`repro.fleet.engine`): none of them can
    change a scan.
    """

    n_servers: int = 50
    server: ServerConfig | None = None
    base_seed: int = 0
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.n_servers < 0:
            raise ConfigurationError(
                f"n_servers must be >= 0, got {self.n_servers}")
        if self.workers is not None:
            resolve_workers(self.workers)  # rejects negatives loudly
