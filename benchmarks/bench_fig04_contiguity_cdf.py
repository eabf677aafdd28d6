"""Figure 4: CDF of free-memory contiguity across the fleet.

Paper: 23 % of sampled servers cannot assemble even one free 2 MiB block;
59 % cannot assemble 32 MiB; dynamic 1 GiB allocation is practically
impossible.

Driven by the ``fig04-contiguity-cdf`` :class:`repro.experiments`
spec, so the CDF rows are served from the content-addressed result
cache (shared with ``repro experiment run fig04-contiguity-cdf`` and
with Fig. 6, which reads the same fleet survey).
"""

from repro.experiments import run_experiment

from common import save_result


def compute():
    return run_experiment("fig04-contiguity-cdf")


def test_fig04_contiguity_cdf():
    result = compute()
    save_result("fig04_contiguity_cdf.txt", result.report())

    without = {row["granularity"]: row["without_any"]
               for row in result.rows}
    # Shape assertions: larger granularities are strictly harder.
    assert without["2MB"] <= without["32MB"] <= without["1GB"]
    # A substantial share of servers lacks any 2 MiB contiguity, and
    # dynamically allocating 1 GiB is (nearly) impossible.
    assert without["2MB"] > 0.05
    assert without["1GB"] > 0.9
