"""What a checkpoint boundary and a resume cost, phase by phase.

Runs the ``durable-run`` workload's cycle — a 300-step 256 MiB ``web``
run on Linux, plain, then checkpointed every 50 steps, then resumed from
its final checkpoint — and times each phase inside the run:

* ``kernel``, ``driver``: the sections each layer's ``snapshot()``
  writes (the handle registry's are the kernel's);
* ``encode``: ``encode_checkpoint`` (narrowing, JSON, SHA-256);
* ``write``: the rest of ``CheckpointStore.save`` (write, fsync, rotate);
* ``read``: ``CheckpointStore.load_latest``; ``restore``: every layer's
  ``restore()``; ``sweep``: ``restore_kernel``;
* ``plain``, ``checkpointed``, ``resumed``: the three runs of a cycle;
  ``boundary``: (checkpointed run − plain run) ÷ boundaries, and
  ``overhead_x``: checkpointed run ÷ plain run.

Given ``--old DIR``, where ``DIR/repro_old`` is a second copy of the
package (a parent checkout's ``src/repro``: every intra-package import
is relative), both trees load in this one process and their cycles
alternate, so host drift cancels out of the ratio::

    mkdir -p /tmp/old && git archive PARENT src/repro | tar -x -C /tmp/old
    mv /tmp/old/src/repro /tmp/old/repro_old
    PYTHONPATH=src python3 benchmarks/perf/boundary.py --old /tmp/old

Each tree runs ``PAIRS`` cycles on seed ``SEED``.  Prints one row per
phase: the median milliseconds of each tree and their ratio.  Both
trees must write format 14 or later (a format-13 tree's ``snapshot()``
takes a handle table this script does not build).
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time

STEPS, EVERY, MEM_MIB = 300, 50, 256
PAIRS, SEED = 10, 11
PHASES = ("kernel", "driver", "encode", "write", "read", "restore",
          "sweep", "plain", "checkpointed", "resumed", "boundary",
          "overhead_x")


class Tree:
    """One copy of the package, with its checkpoint path timed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.pkg = importlib.import_module(name)
        self.config = importlib.import_module(f"{name}.workloads.config")
        self.format = importlib.import_module(f"{name}.checkpoint.format")
        self.checkpoint = importlib.import_module(f"{name}.checkpoint")
        self.sections = importlib.import_module(f"{name}.mm.sections")
        self.units = importlib.import_module(f"{name}.units")
        self.times: dict[str, list[float]] = {phase: [] for phase in PHASES}
        self._tap()

    def _timed(self, phase: str, fn):
        times = self.times[phase]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - start)
        return timed

    def _tap(self) -> None:
        fmt, config, store = self.format, self.config, self.format.CheckpointStore
        encode, save = fmt.encode_checkpoint, store.save
        fmt.encode_checkpoint = self._timed("encode", encode)

        def timed_save(store_self, *args, **kwargs):
            before = len(self.times["encode"])
            start = time.perf_counter()
            out = save(store_self, *args, **kwargs)
            spent = time.perf_counter() - start
            self.times["write"].append(
                spent - sum(self.times["encode"][before:]))
            return out

        store.save = timed_save
        store.load_latest = self._timed("read", store.load_latest)
        config._restore = self._timed("restore", config._restore)
        self.checkpoint.restore_kernel = self._timed(
            "sweep", self.checkpoint.restore_kernel)
        config._snapshot = self._snapshot

    def _snapshot(self, kernel, workload):
        nest, times = self.sections.nest, self.times

        def sections():
            start = time.perf_counter()
            k = kernel.snapshot()
            mid = time.perf_counter()
            w = workload.snapshot()
            times["kernel"].append(mid - start)
            times["driver"].append(time.perf_counter() - mid)
            return {**nest("kernel", k), **nest("workload", w)}
        return self.format.collector_paused(sections)

    def cycle(self, seed: int, scratch: str) -> None:
        """One plain run, one checkpointed run and its resume."""
        run = self.config.run_workload
        config = self.config.WorkloadConfig(
            "web", "linux", self.units.MiB(MEM_MIB), steps=STEPS, seed=seed)
        directory = tempfile.mkdtemp(dir=scratch)
        start = time.perf_counter()
        plain = run(config).snapshot()
        mid = time.perf_counter()
        ran = run(config, checkpoint_every=EVERY,
                  checkpoint_dir=directory).snapshot()
        end = time.perf_counter()
        resumed = run(config, checkpoint_every=EVERY, checkpoint_dir=directory,
                      resume=True).snapshot()
        self.times["plain"].append(mid - start)
        self.times["checkpointed"].append(end - mid)
        self.times["resumed"].append(time.perf_counter() - end)
        if not plain == ran == resumed:
            raise SystemExit(f"{self.name}: seed {seed}: a checkpointed or "
                             f"resumed run differs from the plain run")
        self.times["boundary"].append(
            ((end - mid) - (mid - start)) / (STEPS // EVERY))
        self.times["overhead_x"].append((end - mid) / (mid - start))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--old", metavar="DIR",
                        help="directory holding the package to compare "
                             "against, as repro_old")
    args = parser.parse_args(argv)
    if args.old:
        sys.path.insert(0, os.path.abspath(args.old))
    trees = [Tree(name) for name in (("repro_old", "repro") if args.old
                                     else ("repro",))]
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(PAIRS):
            for tree in trees[::1 if i % 2 else -1]:
                tree.cycle(SEED, scratch)
    names = [tree.name for tree in trees]
    print(f"durable-run cycle, seed {SEED}, {PAIRS} per tree; "
          f"median ms (overhead_x: ratio)")
    print(f"{'phase':<12}" + "".join(f"{name:>12}" for name in names)
          + ("       ratio" if args.old else ""))
    for phase in PHASES:
        scale = 1 if phase == "overhead_x" else 1e3
        medians = [statistics.median(tree.times[phase]) * scale
                   if tree.times[phase] else 0.0 for tree in trees]
        ratio = (f"{medians[1] / medians[0]:>12.3f}"
                 if args.old and medians[0] else "")
        print(f"{phase:<12}" + "".join(f"{m:>12.2f}" for m in medians)
              + ratio)
    return 0


if __name__ == "__main__":
    sys.exit(main())
