"""Every mutant in ``tests/mutants.py`` is pinned: its cheapest killer
spec, verified with the mutant applied, breaks exactly the claims it
lists (a survivor breaks none), and docs/CLAIMS.md's mutation table
says which.  A mutant too slow for Tier-1 is verified by hand
(``tests/mutants.py``'s docstring)."""

import pathlib

import pytest

from mutants import MUTANTS, verify_mutant

CLAIMS_MD = pathlib.Path(__file__).parents[1] / "docs" / "CLAIMS.md"
EXPERIMENTS_MD = pathlib.Path(__file__).parents[1] / "EXPERIMENTS.md"


@pytest.mark.parametrize("mutant", [m for m in MUTANTS if m.tier1],
                         ids=lambda m: m.name)
def test_the_mutant_breaks_a_claim(mutant, monkeypatch, tmp_path):
    broken = verify_mutant(mutant, monkeypatch, tmp_path)
    assert broken == mutant.killed_by, (
        f"{mutant.name} broke {broken or 'nothing'} on {mutant.killers}")


def test_the_mutation_table_lists_each_mutant_and_its_killers():
    rows = {line.split(" | ")[0].strip("|` "): line.split(" | ")
            for line in CLAIMS_MD.read_text().splitlines()
            if line.startswith("| `")}
    assert sorted(rows) == sorted(m.name for m in MUTANTS)
    for mutant in MUTANTS:
        assert rows[mutant.name][3] == ", ".join(
            f"`{killed.partition(':')[2]}`"
            for killed in mutant.killed_by) or "survived"


def test_every_survivor_is_a_known_fidelity_gap():
    gaps = EXPERIMENTS_MD.read_text().partition(
        "## Known fidelity gaps")[2]
    for mutant in MUTANTS:
        if not mutant.killed_by:
            assert f"`{mutant.name}`" in gaps, mutant.name
