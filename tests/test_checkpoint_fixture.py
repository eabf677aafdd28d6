"""Format stability: committed format-14 ``workload`` checkpoints.

``tests/fixtures/checkpoint/<kernel>/workload.ckpt`` was written at step
10 of a 20-step, 16 MiB ``web`` run on each kernel, and
``resumed.json`` holds what resuming each one through
``run_workload(..., resume=True)`` returns (the finished run's
snapshot, equal to an uninterrupted run's).  A refactor of ``mm``
or the workload driver that changes no behaviour must keep these files
loading and resuming to the same result, and the writer rewriting them
byte for byte; a change to what a checkpoint
holds bumps ``FORMAT_VERSION`` and regenerates them on purpose::

    PYTHONPATH=src python tests/test_checkpoint_fixture.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

from repro.checkpoint import FORMAT_VERSION, CheckpointStore

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "checkpoint")
KERNELS = ("linux", "contiguitas")
#: The fixture's run: 20 steps, checkpointed at step 10 only.
STEPS, AT = 20, 10


def _config(kernel: str):
    from repro.units import MiB
    from repro.workloads import WorkloadConfig

    return WorkloadConfig("web", kernel, MiB(16), steps=STEPS, seed=7)


@pytest.mark.parametrize("kernel", KERNELS)
def test_committed_checkpoint_resumes_to_committed_snapshot(kernel,
                                                            tmp_path):
    with open(os.path.join(FIXTURES, "resumed.json")) as fh:
        expected = json.load(fh)
    assert expected["format"] == FORMAT_VERSION, (
        "FORMAT_VERSION moved: regenerate the fixtures (module docstring)")
    from repro.workloads import run_workload

    shutil.copy(os.path.join(FIXTURES, kernel, "workload.ckpt"), tmp_path)
    ckpt = CheckpointStore(str(tmp_path), "workload").load_latest()
    assert (ckpt.kind, ckpt.step) == ("workload", AT)
    assert run_workload(_config(kernel), checkpoint_dir=str(tmp_path),
                        resume=True).snapshot() == expected[kernel]


@pytest.mark.parametrize("kernel", KERNELS)
def test_committed_snapshot_is_the_uninterrupted_run(kernel):
    """The fixture pins the run, not a resume artefact."""
    from repro.workloads import run_workload

    with open(os.path.join(FIXTURES, "resumed.json")) as fh:
        expected = json.load(fh)
    assert run_workload(_config(kernel)).snapshot() == expected[kernel]


def _killed_run(kernel: str, directory: str) -> None:
    """The fixture's run, killed at its first boundary: one generation,
    step 10, in *directory*."""
    from repro.errors import SimCrashError
    from repro.faults import FaultPlan, FaultSpec, injecting
    from repro.workloads import run_workload

    kill = FaultPlan("kill", (FaultSpec("sim.crash", rate=1.0,
                                        max_fires=1),))
    with injecting(kill, seed=0), pytest.raises(SimCrashError):
        run_workload(_config(kernel), checkpoint_every=AT,
                     checkpoint_dir=directory)


@pytest.mark.parametrize("kernel", KERNELS)
def test_writer_reproduces_the_committed_bytes(kernel, tmp_path):
    """The writer is pinned byte for byte: a change to how a snapshot
    is built or encoded that keeps the format must write these files."""
    _killed_run(kernel, str(tmp_path))
    with open(os.path.join(FIXTURES, kernel, "workload.ckpt"), "rb") as fh:
        committed = fh.read()
    with open(tmp_path / "workload.ckpt", "rb") as fh:
        assert fh.read() == committed


def regenerate() -> None:
    """Rewrite every fixture from the current build."""
    from repro.workloads import run_workload

    expected = {"format": FORMAT_VERSION}
    for kernel in KERNELS:
        directory = os.path.join(FIXTURES, kernel)
        shutil.rmtree(directory, ignore_errors=True)
        _killed_run(kernel, directory)
        expected[kernel] = run_workload(_config(kernel)).snapshot()
    with open(os.path.join(FIXTURES, "resumed.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(regenerate())
