"""Figure 13: page-unavailable cycles during migration vs victim cores.

Paper: Linux's shootdown-based migration blocks the page for a duration
that grows linearly with the number of victim TLBs (~8000 cycles at 8),
with the copy contributing a constant ~1300 cycles; Contiguitas-HW's lazy
local invalidation keeps the page available — the only possible stall is
one local INVLPG, constant in core count.  Linux-Real is represented by
the analytic cost model calibrated against measurement; Linux-Sim is the
event-driven protocol model; they must agree within the paper's
-6 %..+10 % validation band.

Driven by the ``fig13-unavailable`` :class:`repro.experiments` spec
(shared with ``repro experiment run fig13-unavailable``).
"""

from repro.experiments import run_experiment

from common import save_result


def compute():
    return run_experiment("fig13-unavailable")


def test_fig13_unavailable():
    result = compute()
    save_result("fig13_unavailable.txt", result.report())

    rows = result.rows
    # Linear growth for Linux; constant for Contiguitas.
    sims = [row["linux_sim"] for row in rows]
    conts = [row["contiguitas"] for row in rows]
    deltas = {b - a for a, b in zip(sims, sims[1:])}
    assert len(deltas) == 1, "Linux-Sim not linear"
    assert len(set(conts)) == 1, "Contiguitas not constant"
    assert conts[0] == rows[0]["invlpg_cycles"]
    # Right edge near the paper's ~8000 cycles.
    assert 7000 <= sims[-1] <= 9500
    # Validation band.
    for row in rows:
        real, sim = row["linux_real"], row["linux_sim"]
        assert -0.06 <= (sim - real) / real <= 0.10
    assert 1100 <= rows[0]["copy_cycles"] <= 1500
