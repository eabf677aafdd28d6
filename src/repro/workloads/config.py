"""The typed workload front door: ``run_workload(WorkloadConfig)``.

Mirrors the fleet's ``run_fleet(FleetConfig)`` pattern (PR 5): one
frozen, eagerly-validated config in, one result object out.  The config
composes a service (by registry name or as a literal
:class:`~repro.workloads.base.WorkloadSpec`) with the kernel flavour,
machine size, step count and seed.  A tail-latency burst is
:func:`~repro.workloads.tracegen.run_loadgen`'s, not this entry
point's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CheckpointCorruptError, ConfigurationError
from ..mm.sections import nest, scope
from ..run import RunSession
from ..telemetry.lazymanifest import LazyManifest
from ..units import MiB, PAGEBLOCK_FRAMES
from .base import Workload, WorkloadSpec
from .registry import canonical_service_name, get_service

_KERNELS = ("linux", "contiguitas")


@dataclass(frozen=True)
class WorkloadConfig:
    """One steady-state workload run, fully specified.

    Attributes:
        service: registry name (kebab-case, or a legacy CamelCase
            alias) or a literal :class:`WorkloadSpec`.
        kernel: ``"linux"`` or ``"contiguitas"``.
        mem_bytes: simulated machine's physical memory.
        steps: workload steps to run after :meth:`Workload.start`.
        seed: run seed (workload churn derives its named streams
            from it).
    """

    service: str | WorkloadSpec = "cache-b"
    kernel: str = "linux"
    mem_bytes: int = MiB(256)
    steps: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.service, str):
            get_service(self.service)  # raises with the known list
        elif not isinstance(self.service, WorkloadSpec):
            raise ConfigurationError(
                "service must be a registry name or a WorkloadSpec, "
                f"got {type(self.service).__name__}")
        if self.kernel not in _KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; known: {_KERNELS}")
        if self.mem_bytes < MiB(16):
            raise ConfigurationError(
                f"mem_bytes must be >= 16 MiB, got {self.mem_bytes}")
        if self.steps < 0:
            raise ConfigurationError(
                f"steps must be >= 0, got {self.steps}")

    @property
    def spec(self) -> WorkloadSpec:
        """The resolved service spec."""
        if isinstance(self.service, WorkloadSpec):
            return self.service
        return get_service(self.service)

    @property
    def service_name(self) -> str:
        """Canonical kebab-case name (or the literal spec's name)."""
        if isinstance(self.service, WorkloadSpec):
            return self.service.name
        return canonical_service_name(self.service)

    def snapshot(self) -> dict:
        """JSON-safe view of the configuration: the identity a
        checkpoint of this run records (every field; the service by
        name)."""
        return {**vars(self), "service": self.service_name}


@dataclass
class WorkloadResult(LazyManifest):
    """Outcome of one :func:`run_workload` run, and its manifest (kind
    ``workload``, the vmstat as counters), built on first read of
    :attr:`manifest`."""

    service: str
    kernel: str
    steps: int
    seed: int
    huge_coverage: dict[str, float]
    unmovable_fraction: float
    free_frames: int
    vmstat: dict[str, int]

    def snapshot(self) -> dict:
        """JSON-safe view."""
        return {
            "service": self.service,
            "kernel": self.kernel,
            "steps": self.steps,
            "seed": self.seed,
            "huge_coverage": dict(self.huge_coverage),
            "unmovable_fraction": self.unmovable_fraction,
            "free_frames": self.free_frames,
            "vmstat": dict(self.vmstat),
        }

    def manifest_derived(self) -> dict:
        return {"counters": self.vmstat, "aggregates": {
            "free_frames": self.free_frames,
            "unmovable_fraction": self.unmovable_fraction,
            **{f"huge_coverage.{size}": share
               for size, share in sorted(self.huge_coverage.items())}}}


def run_workload(config: WorkloadConfig, *,
                 checkpoint_every: int = 0,
                 checkpoint_dir: str | None = None,
                 resume: bool = False) -> WorkloadResult:
    """Run a workload to steady state.

    The kernel boots, the service's churn runs for ``config.steps``
    steps, and the fragmentation/coverage measurements the paper
    reports per machine are collected.

    With ``checkpoint_every > 0`` and a ``checkpoint_dir``, the churn
    loop checkpoints every N steps and gives the ``sim.crash`` fault
    site a shot at each boundary.  ``resume=True`` with a
    ``checkpoint_dir`` (a cadence is not needed) restores the last good
    checkpoint of *this* config — after a sanitizer sweep — and
    continues: calling this again is how a killed run is finished, and
    the finished result is byte-identical to an uninterrupted run's.
    The plumbing is :class:`repro.run.RunSession`'s.
    """
    if not isinstance(config, WorkloadConfig):
        raise ConfigurationError(
            f"run_workload takes a WorkloadConfig, "
            f"got {type(config).__name__}")
    # Imported lazily, matching the CLI: kernel construction pulls in
    # the whole mm/core stack, which plain spec lookups don't need.
    from ..analysis import unmovable_block_fraction
    from ..core import ContiguitasConfig, ContiguitasKernel
    from ..mm import KernelConfig, LinuxKernel

    session = RunSession("workload", config.snapshot(),
                         checkpoint_every=checkpoint_every,
                         checkpoint_dir=checkpoint_dir, resume=resume)
    ckpt = session.restore()
    if config.kernel == "linux":
        kernel = LinuxKernel(KernelConfig(mem_bytes=config.mem_bytes))
    else:
        kernel = ContiguitasKernel(
            ContiguitasConfig(mem_bytes=config.mem_bytes))
    workload = Workload(kernel, config.spec, seed=config.seed)
    if ckpt is not None:
        # Looked up on the package at call time, so a patched
        # restore_kernel (the benchmark's tap) is the one called.
        from ..checkpoint import restore_kernel
        from ..checkpoint.format import collector_paused
        collector_paused(_restore, ckpt, kernel, workload)
        restore_kernel(kernel)
    else:
        workload.start()
    for step in range(ckpt.step if ckpt is not None else 0, config.steps):
        workload.step()
        session.boundary(step + 1, lambda: _snapshot(kernel, workload))

    result = WorkloadResult(
        service=config.service_name,
        kernel=config.kernel,
        steps=config.steps,
        seed=config.seed,
        huge_coverage=workload.huge_coverage(),
        unmovable_fraction=unmovable_block_fraction(
            kernel.mem, PAGEBLOCK_FRAMES),
        free_frames=kernel.free_frames(),
        vmstat=kernel.stat.snapshot())
    result.manifest_parts = session.manifest(seed=config.seed)
    return result


def _snapshot(kernel, workload):
    """One checkpoint's sections: the kernel's and the driver's, each
    naming an allocation by its registry slot."""
    from ..checkpoint.format import collector_paused

    def sections():
        return {**nest("kernel", kernel.snapshot()),
                **nest("workload", workload.snapshot())}
    return collector_paused(sections)


def _restore(ckpt, kernel, workload) -> None:
    """Load *ckpt*'s sections into a freshly booted kernel and a fresh
    (not started) driver.

    Raises:
        CheckpointCorruptError: a section is missing, or does not fit
            the kernel this config boots.
    """
    sections = ckpt.payload
    try:
        kernel.restore(scope("kernel", sections))
        workload.restore(scope("workload", sections))
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise CheckpointCorruptError(
            f"{ckpt.path}: sections do not restore: {exc!r}") from exc
