"""Figure 6: sources of unmovable allocations.

Paper: networking buffers account for >73 % of unmovable pages at Meta,
slab ~12 %, then filesystems, page tables, and ~4 % others.

Driven by the ``fig06-sources`` :class:`repro.experiments` spec: the
source breakdown comes out of the content-addressed result cache and the
underlying fleet survey is shared with Fig. 4.
"""

from repro.experiments import run_experiment

from common import save_result


def compute():
    return run_experiment("fig06-sources")


def test_fig06_sources():
    result = compute()
    save_result("fig06_sources.txt", result.report())

    fractions = {row["source"]: row["fraction"] for row in result.rows}
    # Networking dominates, as in the paper.
    assert max(fractions, key=fractions.get) == "networking"
    assert fractions["networking"] > 0.5
    # Slab is the clear second among kernel heaps.
    assert fractions.get("slab", 0) > fractions.get("pagetable", 0)
