"""End-to-end performance model (paper Fig. 10).

The paper's metric is requests/second under a latency SLA.  For
compute-bound services, throughput is inversely proportional to cycles
per request, and the page-size configuration changes only the
translation-stall component:

    cycles_per_instr = exec / (1 - walk_fraction)
    relative_perf(config) = (1 - walk_fraction_config)
                          / (1 - walk_fraction_baseline)   [inverted]

``walk_fraction`` comes from the Fig. 3 model under the huge-page coverage
the kernel *actually achieved* — measured from the simulated machine,
exactly like the paper measures 2 MiB / 1 GiB bytes allocated under each
kernel and fragmentation setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..workloads.base import WorkloadSpec
from .walkcycles import (
    MIX_4K,
    PageSizeMix,
    WalkCycleResult,
    mix_for_coverage,
    walk_cycles,
)


@dataclass
class EndToEndResult:
    """One bar of Fig. 10."""

    service: str
    config: str
    walk: WalkCycleResult
    #: Throughput relative to the 4 KiB-only run of the same service.
    relative_perf: float
    #: The share of the win attributable to 1 GiB pages (Web's stacked
    #: red bar): relative_perf minus what the same 2 MiB coverage alone
    #: would have delivered.
    perf_from_1g: float = 0.0


def perf_ratio(baseline: WalkCycleResult, config: WalkCycleResult) -> float:
    """Relative throughput of *config* vs *baseline*.

    Walk percentages are shares of total cycles; the execution work per
    request is constant, so cycles/request scale as ``1/(1 - walk_frac)``
    and throughput as ``1 - walk_frac`` relative to the baseline:

        perf_config / perf_base = (1 - frac_config) / (1 - frac_base)

    A configuration with fewer walk cycles yields a ratio above 1.
    """
    base_frac = baseline.total_pct / 100.0
    this_frac = config.total_pct / 100.0
    if not (0 <= base_frac < 1 and 0 <= this_frac < 1):
        raise ConfigurationError("walk fraction out of range")
    return (1.0 - this_frac) / (1.0 - base_frac)


def evaluate_configuration(
    spec: WorkloadSpec,
    coverage: dict[str, float],
    config_name: str,
    n_instructions: int = 200_000,
    seed: int = 0,
) -> EndToEndResult:
    """Score one (service, achieved-coverage) point against the 4 KiB
    baseline, splitting out the 1 GiB contribution like Fig. 10's
    stacked Web bar."""
    base = walk_cycles(spec, MIX_4K, n_instructions=n_instructions,
                       seed=seed)
    mix = mix_for_coverage(coverage)
    this = walk_cycles(spec, mix, n_instructions=n_instructions, seed=seed)
    rel = perf_ratio(base, this)

    perf_from_1g = 0.0
    if mix.frac_1g > 0:
        # Counterfactual: the same 1 GiB bytes demoted to 2 MiB pages.
        demoted = PageSizeMix(frac_1g=0.0,
                              frac_2m=min(1.0, mix.frac_2m + mix.frac_1g))
        demoted_walk = walk_cycles(spec, demoted,
                                   n_instructions=n_instructions, seed=seed)
        perf_from_1g = rel - perf_ratio(base, demoted_walk)

    return EndToEndResult(
        service=spec.name,
        config=config_name,
        walk=this,
        relative_perf=rel,
        perf_from_1g=max(0.0, perf_from_1g),
    )
