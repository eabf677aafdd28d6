"""§5.3 sizing: metadata-table hardware cost and migration capacity.

Paper (CACTI, 22 nm): 0.0038 mm² per slice, 0.0017 nJ/access, 0.64 mW
leakage, 0.014 % of a core's area; a single entry already sustains far
more migrations/second than production ever needs (30 µs per migration
window).

Driven by the ``s53-hwcost`` :class:`repro.experiments` spec (shared
with ``repro experiment run s53-hwcost``).
"""

import pytest

from repro.experiments import run_experiment
from repro.workloads import VERY_HIGH_RATE

from common import save_result


def compute():
    return run_experiment("s53-hwcost")


def test_s53_hwcost():
    result = compute()
    save_result("s53_hwcost.txt", result.report())

    vals = result.rows[0]
    assert vals["area_mm2"] == pytest.approx(0.0038, rel=0.15)
    assert vals["energy_nj"] == pytest.approx(0.0017, rel=0.15)
    assert vals["leakage_mw"] == pytest.approx(0.64, rel=0.15)
    assert vals["core_fraction"] < 0.001
    # Even one entry sustains >10x the Very High migration rate.
    assert vals["capacity_1_entry"] > 10 * VERY_HIGH_RATE
