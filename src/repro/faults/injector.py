"""Seeded fault-injection sites and the process-wide registry.

Instrumented modules declare a site once at import time and consult it
behind the site's own ``armed`` flag — the exact contract tracepoints
use (``docs/OBSERVABILITY.md``):

.. code-block:: python

    from repro.faults import fault_site

    _fs_busy = fault_site("mm.migrate.busy")

    if _fs_busy.armed and _fs_busy.fire(pfn=src_pfn):
        ...inject the failure...

With no plan installed (the default everywhere) the hook costs one
attribute load and one branch; the keyword arguments are never built
and no randomness is consumed.  Arming happens through
:func:`injecting` (or :meth:`FaultRegistry.install`), which seeds every
armed site from the run seed so the same ``(seed, plan)`` pair yields
the same fault sequence regardless of host or worker placement.

Every fire counts into the registry's :class:`MetricsRegistry` under a
``fault.`` prefix and emits the guarded ``faults.inject`` tracepoint,
so chaos runs are observable through the ordinary telemetry surface.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator

from ..telemetry import MetricsRegistry, tracepoint
from .plan import FaultPlan, FaultSpec

_tp_inject = tracepoint("faults.inject")


class FaultSite:
    """One injection point with its armed/disarmed state.

    ``armed`` is a plain bool attribute (not a property) so the
    disabled hot path is a single attribute load plus a branch.
    """

    __slots__ = ("name", "armed", "_spec", "_rng", "_seen", "_fires")

    def __init__(self, name: str) -> None:
        self.name = name
        self.armed = False
        self._spec: FaultSpec | None = None
        self._rng: random.Random | None = None
        self._seen = 0
        self._fires = 0

    def arm(self, spec: FaultSpec, seed: int) -> None:
        """Arm under *spec*, seeding the site RNG from the run seed."""
        self._spec = spec
        self._rng = random.Random(f"fault:{self.name}:{seed}")
        self._seen = 0
        self._fires = 0
        self.armed = True

    def disarm(self) -> None:
        self.armed = False
        self._spec = None
        self._rng = None

    def fire(self, **ctx) -> bool:
        """One injection attempt; True when the fault should happen.

        Only call when ``armed`` (callers guard, like tracepoints).
        The skip window and fire cap are applied before the rate draw;
        ``rate >= 1.0`` never touches the RNG, so an always-fire spec
        stays deterministic even if callers attempt in different
        orders.
        """
        spec = self._spec
        self._seen += 1
        if self._seen <= spec.skip:
            return False
        if spec.max_fires is not None and self._fires >= spec.max_fires:
            return False
        if spec.rate < 1.0 and self._rng.random() >= spec.rate:
            return False
        self._fires += 1
        FAULTS.metrics.inc("fault." + self.name)
        if _tp_inject.enabled:
            _tp_inject.emit(site=self.name, fires=self._fires, **ctx)
        return True

    def draw(self, n: int) -> int:
        """A deterministic value in ``[0, n)`` from the site RNG — used
        by sites that need a victim (e.g. the UCE frame number)."""
        return self._rng.randrange(n)


class FaultRegistry:
    """Process-wide site table plus the fault metrics registry."""

    def __init__(self) -> None:
        self._sites: dict[str, FaultSite] = {}
        self.metrics = MetricsRegistry()
        self.plan: FaultPlan | None = None

    def site(self, name: str) -> FaultSite:
        """Get-or-create the site *name* (idempotent, import-time safe)."""
        site = self._sites.get(name)
        if site is None:
            site = self._sites[name] = FaultSite(name)
        return site

    def install(self, plan: FaultPlan, seed: int = 0) -> None:
        """Arm every site the plan names; reset the fault counters."""
        self.uninstall()
        self.metrics.reset()
        self.plan = plan
        for spec in plan.specs:
            self.site(spec.site).arm(spec, seed)

    def uninstall(self) -> None:
        """Disarm everything; hot paths fall back to the one-branch
        disabled cost."""
        for name in sorted(self._sites):
            self._sites[name].disarm()
        self.plan = None

    def fire_counts(self) -> dict[str, int]:
        """Non-zero ``fault.*`` counters, sorted by name.

        Zero-count sites are omitted on purpose: a plan that armed a
        site which never fired leaves no trace, so a crash-only chaos
        scan stays bit-identical to a clean scan of the same seed.
        """
        counters = self.metrics.snapshot().get("counters", {})
        return {name: value for name, value in sorted(counters.items())
                if value}


#: The process-wide registry: one per interpreter, like ``TRACEPOINTS``.
#: Fleet workers each have their own (they are separate processes) and
#: install the plan with the *server's* seed, which is what keeps fault
#: sequences independent of worker count and scheduling.
FAULTS = FaultRegistry()


def fault_site(name: str) -> FaultSite:
    """Module-level convenience: declare/fetch a site at import time."""
    return FAULTS.site(name)


@contextmanager
def injecting(plan: FaultPlan | None, seed: int = 0) -> Iterator[FaultRegistry]:
    """Install *plan* for a scope, guaranteeing disarm on exit.

    ``plan=None`` is a no-op pass-through so callers can wrap
    unconditionally.
    """
    if plan is None:
        yield FAULTS
        return
    FAULTS.install(plan, seed)
    try:
        yield FAULTS
    finally:
        FAULTS.uninstall()
