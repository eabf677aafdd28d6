#!/usr/bin/env python3
"""A/B load test: one production service, three memory-management setups.

Reproduces the paper's Fig. 10 methodology on one service: deploy it on a
fully fragmented Linux server, a partially fragmented Linux server, and a
Contiguitas server, measure the huge-page coverage each kernel achieved,
and convert the resulting page-walk savings into relative throughput.

Usage::

    python examples/service_ab_test.py [Web|CacheA|CacheB]
"""

import sys

from repro.analysis import format_table
from repro.core import ContiguitasConfig, ContiguitasKernel
from repro.mm import KernelConfig, LinuxKernel
from repro.perfmodel import evaluate_configuration
from repro.units import MiB
from repro.workloads import (
    Workload,
    fragment_fully,
    fragment_partially,
    get_service,
)

STEPS = 120


def deploy(spec, kernel, fragmentation: str):
    if fragmentation == "full":
        fragment_fully(kernel)
    elif fragmentation == "partial":
        fragment_partially(kernel, spec, steps=50)
    workload = Workload(kernel, spec, seed=4)
    workload.start()
    for _ in range(STEPS):
        workload.step()
    return workload.huge_coverage()


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "cache-b"
    spec = get_service(name)  # unknown names list what is available
    mem = MiB(2304) if spec.wants_1g else MiB(256)
    print(f"A/B testing {name} on {mem // (1 << 20)} MiB machines "
          f"({STEPS} churn steps each)...")

    configs = {
        "linux-full": (LinuxKernel(KernelConfig(mem_bytes=mem)), "full"),
        "linux-partial": (LinuxKernel(KernelConfig(mem_bytes=mem)),
                          "partial"),
        "contiguitas": (ContiguitasKernel(
            ContiguitasConfig(mem_bytes=mem)), "full"),
    }
    results = {}
    for label, (kernel, frag) in configs.items():
        coverage = deploy(spec, kernel, frag)
        results[label] = evaluate_configuration(
            spec, coverage, label, n_instructions=100_000)

    base = results["linux-full"].relative_perf
    rows = [
        (label,
         f"{r.walk.total_pct / 100:.1%}",
         f"{r.relative_perf / base:.3f}",
         f"+{r.perf_from_1g:.3f}" if r.perf_from_1g else "-")
        for label, r in results.items()
    ]
    print()
    print(format_table(
        ["Config", "Walk cycles", "Relative RPS (vs linux-full)",
         "1G contribution"],
        rows,
        title=f"{name} end-to-end (paper Fig. 10):",
    ))


if __name__ == "__main__":
    main()
