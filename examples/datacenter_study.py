#!/usr/bin/env python3
"""Datacenter fragmentation study: a mini fleet survey (paper §2.4-2.5).

Boots a handful of simulated servers, runs a randomly drawn production
service on each to a sampled uptime, scans their physical memory, and
prints the fragmentation statistics the paper collects at hyperscale:
contiguity availability, unmovable-block distribution, the Fig. 6 source
breakdown, and the uptime non-correlation.

Usage::

    python examples/datacenter_study.py [n_servers]
"""

import sys

from repro.analysis import format_table
from repro.fleet import FleetConfig, ServerConfig, run_fleet
from repro.units import MiB


def main() -> None:
    n_servers = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    print(f"Sampling {n_servers} simulated servers "
          f"(256 MiB each, varied services/utilisation, uptimes past the "
          f"fragmentation saturation point)...")
    server = ServerConfig(mem_bytes=MiB(256), min_uptime_steps=1200,
                          max_uptime_steps=1800)
    fleet = run_fleet(FleetConfig(n_servers=n_servers, server=server,
                                  base_seed=21))

    rows = []
    for gran in ("2MB", "4MB", "32MB", "1GB"):
        values = fleet.series("contiguity", gran)
        rows.append((
            gran,
            f"{fleet.fraction_without_any(gran):.0%}",
            f"{sum(values) / len(values):.1%}",
            f"{fleet.median_unmovable(gran):.0%}",
        ))
    print()
    print(format_table(
        ["Granularity", "Servers w/o any free block",
         "Mean free contiguity", "Median blocks w/ unmovable"],
        rows,
        title="Fleet fragmentation scan (paper Figs. 4-5):",
    ))

    print()
    breakdown = fleet.source_breakdown()
    print(format_table(
        ["Source", "Share of unmovable memory"],
        [(src.name.lower(), f"{frac:.1%}")
         for src, frac in sorted(breakdown.items(),
                                 key=lambda kv: -kv[1])],
        title="Unmovable sources (paper Fig. 6):",
    ))

    corr = fleet.uptime_correlation()
    print(f"\nPearson(uptime, free 2MB blocks) = {corr:+.3f} "
          f"(paper: 0.00286 fleet-wide, 0.16 for\nyoung servers).  With "
          f"a handful of servers this statistic is noisy; the\nbenchmark "
          f"suite measures it over a larger saturated sample "
          f"(benchmarks/\nbench_s24_uptime_corr.py), where it collapses "
          f"toward the paper's non-result.")


if __name__ == "__main__":
    main()
