"""Ablation: resize-coefficient search (the paper's future work, §3.2).

Sweeps the Algorithm-1 coefficient space against a bursty unmovable-demand
trace and reports the best configuration found vs the hand-tuned default
— the "automated parameter space search" the paper defers.

Driven by the ``ablation-autotune`` :class:`repro.experiments` spec
(shared with ``repro experiment run ablation-autotune``).
"""

from repro.experiments import run_experiment

from common import save_result


def compute():
    return run_experiment("ablation-autotune")


def test_ablation_autotune():
    result = compute()
    save_result("ablation_autotune.txt", result.report())

    # Row 0 is the default configuration, then one row per trial.
    costs = [row["cost"] for row in result.rows]
    assert min(costs) <= costs[0]
    assert len(costs) == result.config["trials"] + 1
