"""Deterministic fault injection and the plans that drive it.

The paper's design brief is surviving adversity — pinned DMA pages
that refuse to migrate (§2.1), regions resizing under pressure, fleet
churn — so the simulator injects those adversities on purpose:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  declarative and picklable, recorded in run manifests;
* :mod:`repro.faults.injector` — :class:`FaultSite` hooks with a
  tracepoint-style one-branch disabled path, the process-wide
  :data:`FAULTS` registry, and the :func:`injecting` context manager.

Same seed + same plan ⇒ the same fault sequence ⇒ bit-identical
manifests; see ``docs/ROBUSTNESS.md`` for the fault taxonomy and the
degradation semantics each site exercises.  The names re-exported here
resolve on first use, so importing :mod:`repro.faults.plan` (what a
scenario matrix needs) loads no injector.
"""

from .._lazy import lazy_exports

__all__ = [
    "FAULTS",
    "KNOWN_SITES",
    "NAMED_PLANS",
    "FaultPlan",
    "FaultRegistry",
    "FaultSite",
    "FaultSpec",
    "fault_site",
    "injecting",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".injector": ("FAULTS", "FaultRegistry", "FaultSite", "fault_site",
                  "injecting"),
    ".plan": ("KNOWN_SITES", "NAMED_PLANS", "FaultPlan", "FaultSpec"),
})
