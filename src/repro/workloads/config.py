"""The typed workload front door: ``run_workload(WorkloadConfig)``.

Mirrors the fleet's ``run_fleet(FleetConfig)`` pattern (PR 5): one
frozen, eagerly-validated config in, one result object out.  The config
composes a service (by registry name or as a literal
:class:`~repro.workloads.base.WorkloadSpec`) with the kernel flavour,
machine size, seed, and — optionally — an open-loop
:class:`~repro.workloads.tracegen.LoadgenConfig` so a steady-state
fragmentation run and a tail-latency burst share one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..run import RunSession
from ..units import MiB, PAGEBLOCK_FRAMES
from .base import Workload, WorkloadSpec
from .registry import canonical_service_name, get_service
from .tracegen import LoadgenConfig, LoadgenResult, run_loadgen

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
        seed: run seed (workload churn and any loadgen burst derive
            their named streams from it).
        loadgen: when set, an open-loop load burst runs after the
            steady-state steps and its tail summary lands on the
            result.  The burst reuses this config's seed unless the
            loadgen config carries a non-zero seed of its own.
    """

    service: str | WorkloadSpec = "cache-b"
    kernel: str = "linux"
    mem_bytes: int = MiB(256)
    steps: int = 200
    seed: int = 0
    loadgen: LoadgenConfig | None = None

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
        if self.loadgen is not None and not isinstance(
                self.loadgen, LoadgenConfig):
            raise ConfigurationError(
                "loadgen must be a LoadgenConfig, "
                f"got {type(self.loadgen).__name__}")

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
        name, the burst without its telemetry)."""
        return {**vars(self), "service": self.service_name,
                "loadgen": self.loadgen and self.loadgen.snapshot()}


@dataclass
class WorkloadResult:
    """Outcome of one :func:`run_workload` run."""

    service: str
    kernel: str
    steps: int
    seed: int
    huge_coverage: dict[str, float]
    unmovable_fraction: float
    free_frames: int
    vmstat: dict[str, int]
    loadgen: LoadgenResult | None = None

    def snapshot(self) -> dict:
        """JSON-safe view; the ``latency`` key appears only when an
        open-loop burst ran, so steady-state snapshots stay identical
        to pre-loadgen ones."""
        snap = {
            "service": self.service,
            "kernel": self.kernel,
            "steps": self.steps,
            "seed": self.seed,
            "huge_coverage": dict(self.huge_coverage),
            "unmovable_fraction": self.unmovable_fraction,
            "free_frames": self.free_frames,
            "vmstat": dict(self.vmstat),
        }
        if self.loadgen is not None:
            snap["latency"] = self.loadgen.summary()
        return snap


def run_workload(config: WorkloadConfig, *,
                 checkpoint_every: int = 0,
                 checkpoint_dir: str | None = None,
                 resume: bool = False) -> WorkloadResult:
    """Run a workload to steady state (plus an optional load burst).

    The kernel boots, the service's churn runs for ``config.steps``
    steps, and the fragmentation/coverage measurements the paper
    reports per machine are collected.  With ``config.loadgen`` set, an
    open-loop tail-latency burst follows.

    With ``checkpoint_every > 0`` and a ``checkpoint_dir``, the churn
    loop checkpoints every N steps and gives the ``sim.crash`` fault
    site a shot at each boundary.  ``resume=True`` restores the last
    good checkpoint of *this* config — after a sanitizer sweep — and
    continues; the finished result is byte-identical to an
    uninterrupted run's.  The plumbing is
    :class:`repro.run.RunSession`'s.
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

    # No telemetry on a WorkloadConfig, so there is no sink to scope
    # with a ``with`` block.
    session = RunSession("workload", config, config.snapshot(), None,
                         checkpoint_every=checkpoint_every,
                         checkpoint_dir=checkpoint_dir, resume=resume)
    ckpt = session.restore()
    if ckpt is not None:
        # Looked up on the package at call time, so a patched
        # restore_kernel (the benchmark's tap) is the one called.
        from ..checkpoint import restore_kernel
        kernel, workload = ckpt.payload["kernel"], ckpt.payload["workload"]
        restore_kernel(kernel)
    else:
        if config.kernel == "linux":
            kernel = LinuxKernel(KernelConfig(mem_bytes=config.mem_bytes))
        else:
            kernel = ContiguitasKernel(
                ContiguitasConfig(mem_bytes=config.mem_bytes))
        workload = Workload(kernel, config.spec, seed=config.seed)
        workload.start()
    for step in range(ckpt.step if ckpt is not None else 0, config.steps):
        workload.step()
        session.boundary(step + 1, lambda: {"kernel": kernel,
                                            "workload": workload})

    loadgen_result = None
    if config.loadgen is not None:
        lg = config.loadgen
        if lg.seed == 0 and config.seed != 0:
            from dataclasses import replace
            lg = replace(lg, seed=config.seed)
        loadgen_result = run_loadgen(lg)

    return WorkloadResult(
        service=config.service_name,
        kernel=config.kernel,
        steps=config.steps,
        seed=config.seed,
        huge_coverage=workload.huge_coverage(),
        unmovable_fraction=unmovable_block_fraction(
            kernel.mem, PAGEBLOCK_FRAMES),
        free_frames=kernel.free_frames(),
        vmstat=kernel.stat.snapshot(),
        loadgen=loadgen_result)
