"""Every mutant in ``tests/mutants.py`` is killed: its cheapest killer
spec, verified with the mutant applied, breaks at least one claim, and
docs/CLAIMS.md's mutation table says which."""

import pathlib

import pytest

from mutants import MUTANTS, verify_mutant

CLAIMS_MD = pathlib.Path(__file__).parents[1] / "docs" / "CLAIMS.md"


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_the_mutant_breaks_a_claim(mutant, monkeypatch, tmp_path):
    verdicts = verify_mutant(mutant, monkeypatch, tmp_path)
    broken = tuple(f"{v.spec}:{v.claim.id}" for v in verdicts if v.broken)
    assert broken, f"{mutant.name} survived {mutant.killers}"
    assert broken == mutant.killed_by


def test_the_mutation_table_lists_each_mutant_and_its_killers():
    rows = {line.split(" | ")[0].strip("|` "): line.split(" | ")
            for line in CLAIMS_MD.read_text().splitlines()
            if line.startswith("| `")}
    assert sorted(rows) == sorted(m.name for m in MUTANTS)
    for mutant in MUTANTS:
        assert rows[mutant.name][3] == ", ".join(
            f"`{killed.partition(':')[2]}`" for killed in mutant.killed_by)
