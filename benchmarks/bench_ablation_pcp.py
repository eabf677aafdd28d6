"""Ablation: per-CPU page caches and fragmentation dynamics.

PCP changes placement: concurrent allocation streams draw from per-CPU
batches instead of one global list, interleaving allocations across the
address space at batch granularity.  This bench measures its effect on
unmovable scattering under the same churn — and confirms Contiguitas's
confinement is indifferent to it (unmovable pages cannot leave their
region no matter how placement shuffles).
"""

import dataclasses

from repro.analysis import format_table, percent, unmovable_block_fraction
from repro.units import MiB, PAGEBLOCK_FRAMES
from repro.workloads import Workload
from repro.workloads.services import CACHE_B

from common import make_contiguitas, make_linux, save_result

STEPS = 800
MEM = MiB(256)


def run(kernel_name: str, pcp: bool) -> dict:
    spec = dataclasses.replace(
        CACHE_B, cache_opportunistic=False,
        cache_fraction=max(0.05, 0.97 - CACHE_B.anon_fraction - 0.06))
    kernel = (make_linux(MEM) if kernel_name == "linux"
              else make_contiguitas(MEM))
    kernel.config.pcp_enabled = pcp
    if pcp:
        from repro.mm.pcp import PerCpuPages

        for alloc in kernel.allocators():
            kernel._pcp[alloc.label] = PerCpuPages(
                alloc, cpus=kernel.config.cores)
    workload = Workload(kernel, spec, seed=13)
    workload.start()
    for _ in range(STEPS):
        workload.step()
    out = {
        "unmovable_2m": unmovable_block_fraction(kernel.mem,
                                                 PAGEBLOCK_FRAMES),
    }
    if kernel_name == "contiguitas":
        out["violations"] = kernel.confinement_violations()
    return out


def compute():
    return {
        (kname, pcp): run(kname, pcp)
        for kname in ("linux", "contiguitas")
        for pcp in (False, True)
    }


def test_ablation_pcp():
    out = compute()
    rows = [
        (kname, "on" if pcp else "off",
         percent(vals["unmovable_2m"]),
         vals.get("violations", "-"))
        for (kname, pcp), vals in out.items()
    ]
    text = format_table(
        ["Kernel", "PCP", "Unmovable 2MB blocks", "Confinement violations"],
        rows,
        title="Ablation: per-CPU page caches vs unmovable scattering",
    )
    save_result("ablation_pcp.txt", text)

    # Linux scatters with or without PCP; Contiguitas confines either way.
    for pcp in (False, True):
        assert out[("linux", pcp)]["unmovable_2m"] > \
            out[("contiguitas", pcp)]["unmovable_2m"]
        assert out[("contiguitas", pcp)]["violations"] == 0
