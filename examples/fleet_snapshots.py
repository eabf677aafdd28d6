#!/usr/bin/env python3
"""Offline fleet analysis with memory snapshots.

The paper's fleet study separates *scanning* (expensive, on-host) from
*analysis* (offline, repeatable).  This example runs a few servers,
snapshots each machine's frame state to disk, then re-answers the Fig. 4/5
questions purely from the snapshots — the workflow a fleet-tools team
would actually use.

Usage::

    python examples/fleet_snapshots.py [n_servers] [out_dir]
"""

import os
import sys
import tempfile

from repro.analysis import (
    SCAN_GRANULARITIES,
    format_table,
    free_contiguity,
    load_snapshot,
    save_snapshot,
    unmovable_block_fraction,
)
from repro.fleet import ServerConfig, SimulatedServer
from repro.mm import KernelConfig, LinuxKernel
from repro.units import MiB
from repro.workloads import Workload, get_service


def scan_host(seed: int, out_dir: str) -> str:
    """Run one simulated host to a sampled uptime and snapshot it."""
    import random

    rng = random.Random(seed)
    spec = get_service(rng.choice(["web", "cache-a", "cache-b", "ci"]))
    kernel = LinuxKernel(KernelConfig(mem_bytes=MiB(256)))
    workload = Workload(kernel, spec, seed=seed)
    workload.start()
    for _ in range(rng.randint(150, 500)):
        workload.step()
    path = os.path.join(out_dir, f"host-{seed:03d}.npz")
    save_snapshot(kernel.mem, path,
                  meta={"service": spec.name, "seed": str(seed)})
    return path


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    out_dir = sys.argv[2] if len(sys.argv) > 2 else tempfile.mkdtemp(
        prefix="contiguitas-scans-")
    os.makedirs(out_dir, exist_ok=True)

    print(f"Scanning {n} hosts into {out_dir} ...")
    paths = [scan_host(seed, out_dir) for seed in range(n)]

    print("\nOffline analysis (kernels long gone, snapshots only):")
    rows = []
    for path in paths:
        snap = load_snapshot(path)
        rows.append((
            os.path.basename(path),
            snap.meta["service"],
            f"{snap.free_frames() / snap.nframes:.0%}",
            f"{free_contiguity(snap, SCAN_GRANULARITIES['2MB']):.1%}",
            format(unmovable_block_fraction(
                snap, SCAN_GRANULARITIES["2MB"]), ".1%"),
        ))
    print(format_table(
        ["Snapshot", "Service", "Free", "Free contiguity 2MB",
         "Unmovable 2MB blocks"],
        rows,
    ))


if __name__ == "__main__":
    main()
