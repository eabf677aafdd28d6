"""Restoring simulator state safely, and crashing it on purpose.

A ``workload`` checkpoint is data: each layer's ``snapshot()`` sections,
loaded by ``restore()`` into a kernel and driver freshly booted from
the run's config (``repro.workloads.config``).  Two things still need
explicit help before the run continues:

* the tracepoint registry reads the simulated clock of the most
  recently registered kernel, so the restored kernel is registered
  (again) with :func:`repro.telemetry.set_sim_clock`;
* trust: a checkpoint that passed every checksum can still have been
  written by a buggy (or memory-corrupted) producer, so restore reruns
  the sanitizer sweep — the freelist link-walk, the handle registry
  against the frame arrays, and the whole-kernel accounting audit —
  before the run continues.

:func:`maybe_crash` is the other half of the crash-recovery harness:
wired at checkpoint boundaries, it lets the ``sim.crash`` fault site
kill a run with :class:`SimCrashError` exactly where a SIGKILL would
land, so tests and CI can assert bit-identical recovery.
"""

from __future__ import annotations

from ..errors import SimCrashError
from ..faults import fault_site
from ..telemetry import set_sim_clock

_fs_crash = fault_site("sim.crash")


def restore_kernel(kernel) -> None:
    """Full post-restore sequence: reattach the clock, then sanitize.

    Whatever kernel was built last is the clock tracepoints read, so
    the restored one is registered here, whoever booted it.  Then
    ``kernel.check_consistency()`` (``verify_kernel``: every free
    list's link walk and ``list_id`` tags, occupancy bitmaps,
    per-migratetype accounting, global free counts, the handle
    registry) runs.

    Raises:
        SimInvariantError: the checkpoint decoded cleanly but encodes a
            state the simulator itself considers impossible.
    """
    set_sim_clock(kernel)
    kernel.check_consistency()


def maybe_crash(step: int, kind: str = "run") -> None:
    """Give the ``sim.crash`` fault site one shot at killing the run.

    Called at checkpoint boundaries (right after a checkpoint write
    attempt).  Raises :class:`SimCrashError` when the site fires; a
    no-op otherwise, including when no plan is installed.
    """
    if _fs_crash.armed and _fs_crash.fire(step=step, kind=kind):
        raise SimCrashError(
            f"injected sim.crash at {kind} checkpoint boundary, "
            f"step {step}")
