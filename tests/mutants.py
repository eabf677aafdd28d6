"""Kernels that are wrong in a known way, for the claims to catch.

A claim is evidence only if a wrong simulator breaks it.  Each
:class:`Mutant` names one class attribute, its wrong replacement and
the fast specs expected to kill it.  :func:`verify_mutant` applies the
replacement with pytest's ``monkeypatch`` (undone after the test),
forces the serial fleet path (``REPRO_FLEET_WORKERS=0``) so the patch
reaches every scan, and verifies the killer specs in a throwaway
:class:`~repro.experiments.ResultCache`: cache keys cannot see a
monkeypatch, so a shared cache would replay the correct kernel's rows.
docs/CLAIMS.md's mutation table lists each mutant and what killed it.
"""

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.kernel import ContiguitasKernel
from repro.experiments import ResultCache, verify_claims
from repro.mm.page import MigrateType


def _unconfined(self, migratetype, source, pinned):
    """Contiguitas without region confinement: every request, pinned
    and unmovable ones included, is served from the movable region."""
    return self.movable, MigrateType.MOVABLE, None


@dataclass(frozen=True)
class Mutant:
    """One known-wrong kernel and the claims that must notice it."""

    name: str
    owner: type
    attr: str
    replacement: Callable
    #: the specs to verify, and on how many seeds (the spec's own first)
    killers: tuple[str, ...]
    seeds: int
    #: ``spec:claim`` of every claim the mutant breaks, in spec order
    killed_by: tuple[str, ...]


MUTANTS = (
    Mutant("contiguitas-unconfined", ContiguitasKernel,
           "allocator_for_request", _unconfined,
           killers=("ablation-pcp",), seeds=1,
           killed_by=("ablation-pcp:linux-scatters",
                      "ablation-pcp:confined")),
)


def verify_mutant(mutant: Mutant, monkeypatch, tmp_path) -> list:
    """The verdicts of *mutant*'s killer specs, run with it applied."""
    monkeypatch.setattr(mutant.owner, mutant.attr, mutant.replacement)
    monkeypatch.setenv("REPRO_FLEET_WORKERS", "0")
    return verify_claims(list(mutant.killers), seeds=mutant.seeds,
                         cache=ResultCache(str(tmp_path)))
