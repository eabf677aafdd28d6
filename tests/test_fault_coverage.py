"""Every fault site fires, and every named plan is used.

A site in ``KNOWN_SITES`` that no run can reach, or a plan in
``NAMED_PLANS`` that no scenario, test or CI step names, is dead
surface that still reads as robustness.  Each site here is armed at
rate 1.0 on the smallest real code path that reaches it, and must fire;
a site added without a driver below fails the check until it gets one.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import (
    CheckpointWriteError,
    MigrationError,
    OutOfMemoryError,
    SimCrashError,
)
from repro.faults import KNOWN_SITES, NAMED_PLANS, FaultPlan, FaultSpec
from repro.faults import injecting
from repro.units import MiB

from conftest import make_linux

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _checkpoint_write(tmp_path) -> None:
    from repro.checkpoint import CheckpointStore

    with pytest.raises(CheckpointWriteError):
        CheckpointStore(tmp_path, "x").save("test", 1, {"step": 1})


def _watermark(tmp_path) -> None:
    with pytest.raises(OutOfMemoryError):
        make_linux(16).alloc_pages(0)


def _uce(tmp_path) -> None:
    kernel = make_linux(16)
    kernel.advance()
    assert kernel.offlined_frames() or kernel._deferred_offline


def _migrate(tmp_path) -> None:
    from repro.mm.migrate import migrate_with_retry

    kernel = make_linux(16)
    src = kernel.alloc_pages(0).pfn
    dst = kernel.buddy.take_free(0, kernel.mem.migratetype[src])
    with pytest.raises(MigrationError):
        migrate_with_retry(kernel.mem, src, dst)


def _sim_crash(tmp_path) -> None:
    from repro.checkpoint import maybe_crash

    with pytest.raises(SimCrashError):
        maybe_crash(1)


#: Site -> the smallest run that reaches it.
DRIVERS = {
    "checkpoint.write-fail": _checkpoint_write,
    "mm.buddy.watermark": _watermark,
    "mm.memory.uce": _uce,
    "mm.migrate.busy": _migrate,
    "mm.migrate.pin": _migrate,
    "sim.crash": _sim_crash,
}


@pytest.mark.parametrize("site", KNOWN_SITES)
def test_every_site_fires(site, tmp_path):
    if site == "fleet.worker.crash":
        # Decided per (seed, attempt) by the plan, in the worker, before
        # the simulation starts: no counter, the attempt's error says so.
        from repro.fleet.engine import _scan_payload
        from repro.fleet.server import ServerConfig

        config = ServerConfig(mem_bytes=MiB(16),
                              fault_plan=NAMED_PLANS["crash-only"])
        outcome = _scan_payload((0, config, 5, 0))
        assert "injected worker crash" in outcome.error
        return
    assert site in DRIVERS, f"no run here reaches fault site {site!r}"
    with injecting(FaultPlan("all", (FaultSpec(site, rate=1.0),))) as faults:
        DRIVERS[site](tmp_path)
        assert faults.fire_counts().get(f"fault.{site}", 0) > 0, site


def test_every_named_plan_is_used():
    """Named by a library scenario (a plan, or an axis value's), or by
    a test or a CI step, as a string."""
    named = set()
    for path in (ROOT / "src/repro/scenarios/library").glob("*.json"):
        doc = json.loads(path.read_text())
        named.add(doc.get("plan"))
        named.update(value.get("plan") for axis in doc.get("axes", ())
                     for value in axis["values"] if isinstance(value, dict))
    text = "\n".join(path.read_text() for path in [
        *(ROOT / "tests").glob("test_*.py"),
        ROOT / ".github/workflows/ci.yml"])
    unused = [name for name in NAMED_PLANS if name not in named
              and f'"{name}"' not in text and f"--plan {name}" not in text]
    assert not unused, f"named plans nothing uses: {unused}"
