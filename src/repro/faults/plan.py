"""Declarative, picklable fault plans.

A :class:`FaultPlan` names the injection sites a run should exercise
and, per site, a firing policy: a probability (``rate``), an initial
grace window (``skip`` attempts that never fire), and a cap
(``max_fires``).  Plans are named tuples so they pickle across the
fleet's process boundary unchanged and serialise into run
manifests via :meth:`FaultPlan.snapshot` — the same seed plus the same
plan reproduces the same fault sequence bit-for-bit, which is what
makes a chaos run diffable against a clean run with
``python -m repro metrics``.

The plan is pure data.  The machinery that consumes it — per-site
armed/disarmed state, the seeded per-site RNGs, counters and
tracepoints — lives in :mod:`repro.faults.injector`.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from ..errors import ConfigurationError

#: Every injection site the simulator exposes.  A plan naming anything
#: else is rejected at construction time, so typos fail fast rather
#: than silently injecting nothing.
KNOWN_SITES: tuple[str, ...] = (
    "checkpoint.write-fail",  # checkpoint write dies before the rename
    "fleet.worker.crash",   # the worker process dies mid-scan
    "mm.buddy.watermark",   # buddy alloc fails as if below watermarks
    "mm.memory.uce",        # uncorrectable memory error on a random frame
    "mm.migrate.busy",      # transient busy refcount during migration
    "mm.migrate.pin",       # transient page pin during migration
    "sim.crash",            # the run dies at a checkpoint boundary
)


class FaultSpec(NamedTuple):
    """Firing policy for one injection site.

    Attributes:
        site: one of :data:`KNOWN_SITES`.
        rate: per-attempt firing probability; ``1.0`` fires on every
            eligible attempt without consuming randomness.
        max_fires: total fires allowed (``None`` = unbounded).
        skip: number of initial attempts that never fire — a grace
            window so a run can reach steady state before the chaos
            starts.
    """

    site: str
    rate: float = 1.0
    max_fires: int | None = None
    skip: int = 0

    def snapshot(self) -> dict:
        """Manifest-ready dict form (plain JSON types only)."""
        return {"site": self.site, "rate": self.rate,
                "max_fires": self.max_fires, "skip": self.skip}


class _FaultPlanFields(NamedTuple):
    name: str
    specs: tuple[FaultSpec, ...] = ()


class FaultPlan(_FaultPlanFields):
    """A named, validated set of :class:`FaultSpec` policies."""

    __slots__ = ()

    def __init__(self, *fields, **named) -> None:
        seen: set[str] = set()
        for spec in self.specs:
            if spec.site not in KNOWN_SITES:
                raise ConfigurationError(
                    f"unknown fault site {spec.site!r}; known sites: "
                    + ", ".join(KNOWN_SITES))
            if spec.site in seen:
                raise ConfigurationError(
                    f"duplicate fault site {spec.site!r} in plan "
                    f"{self.name!r}")
            seen.add(spec.site)
            if not 0.0 <= spec.rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate {spec.rate!r} for {spec.site!r} must be "
                    "in [0, 1]")
            if spec.max_fires is not None and spec.max_fires < 0:
                raise ConfigurationError(
                    f"max_fires {spec.max_fires!r} for {spec.site!r} must "
                    "be >= 0")
            if spec.skip < 0:
                raise ConfigurationError(
                    f"skip {spec.skip!r} for {spec.site!r} must be >= 0")

    def spec_for(self, site: str) -> FaultSpec | None:
        """The policy for *site*, or None when the plan leaves it alone."""
        for spec in self.specs:
            if spec.site == site:
                return spec
        return None

    def snapshot(self) -> dict:
        """Manifest-ready dict form, recorded under the run config."""
        return {"name": self.name,
                "specs": [spec.snapshot() for spec in self.specs]}

    def should_crash(self, server_seed: int, attempt: int) -> bool:
        """Whether the worker scanning (*server_seed*, *attempt*) dies.

        Stateless on purpose: the decision is a pure function of the
        plan, the server's seed, and the attempt number, so it does not
        depend on which pool worker runs the payload or in what order —
        the property that keeps degraded fleet manifests bit-identical
        across worker counts.  With ``max_fires=1`` the first attempt
        crashes and the retry runs clean, making the retried scan
        bit-identical to a clean run of the same seed.
        """
        spec = self.spec_for("fleet.worker.crash")
        if spec is None:
            return False
        if attempt < spec.skip:
            return False
        if spec.max_fires is not None and attempt >= spec.skip + spec.max_fires:
            return False
        if spec.rate >= 1.0:
            return True
        rng = random.Random(
            f"fault:fleet.worker.crash:{server_seed}:{attempt}")
        return rng.random() < spec.rate


#: Plans addressable by name from ``repro experiment run|report
#: --plan``, scenario matrices and CI; an unknown name is refused with
#: this table's keys.
NAMED_PLANS: dict[str, FaultPlan] = {
    # Every server's first attempt crashes, migrations are mildly
    # flaky, and two allocations fail after a grace window: the CI
    # smoke plan exercises the supervised executor, migrate retry, and
    # reclaim escalation in one small run that must still complete with
    # zero degraded servers.
    "ci-smoke": FaultPlan("ci-smoke", (
        FaultSpec("fleet.worker.crash", rate=1.0, max_fires=1),
        FaultSpec("mm.migrate.busy", rate=0.02),
        FaultSpec("mm.buddy.watermark", rate=1.0, max_fires=2, skip=50),
    )),
    # Worker crashes only — retried scans must be bit-identical to a
    # clean run because nothing inside the simulation is perturbed.
    "crash-only": FaultPlan("crash-only", (
        FaultSpec("fleet.worker.crash", rate=1.0, max_fires=1),
    )),
    # Transient migration failures at a rate where bounded retry
    # usually wins: compaction and evacuation see pins/busy refcounts.
    "flaky-migrate": FaultPlan("flaky-migrate", (
        FaultSpec("mm.migrate.pin", rate=0.05),
        FaultSpec("mm.migrate.busy", rate=0.05),
    )),
    # A handful of uncorrectable memory errors: frames are hard-offlined
    # and the contiguity CDF must account for the holes.
    "uce": FaultPlan("uce", (
        FaultSpec("mm.memory.uce", rate=0.02, max_fires=4),
    )),
    # Memory hotplug churn: regions repeatedly leave and rejoin service,
    # so evacuation-style migrations hit busy refcounts and the buddy
    # allocator sees transient watermark failures while capacity is out.
    "hotplug-churn": FaultPlan("hotplug-churn", (
        FaultSpec("mm.migrate.busy", rate=0.08),
        FaultSpec("mm.buddy.watermark", rate=0.02, skip=20),
    )),
    # Allocation-pressure storm: after a grace window the buddy
    # allocator fails a large fraction of attempts, forcing the reclaim
    # and compaction escalation paths an OOM-adjacent fleet would see.
    "oom-storm": FaultPlan("oom-storm", (
        FaultSpec("mm.buddy.watermark", rate=0.25, skip=100),
    )),
    # Crash-recovery harness: the first checkpoint write dies before its
    # atomic rename (both earlier generations must survive), then the
    # run itself is killed at the next checkpoint boundary.  Resuming
    # from the surviving checkpoint must be bit-identical to an
    # uninterrupted run of the same seed.
    "crash-restart": FaultPlan("crash-restart", (
        FaultSpec("checkpoint.write-fail", rate=1.0, max_fires=1),
        FaultSpec("sim.crash", rate=1.0, max_fires=1, skip=1),
    )),
}
