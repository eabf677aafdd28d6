"""Kernels that are wrong in a known way, for the claims to catch.

A claim is evidence only if a wrong simulator breaks it.  Each
:class:`Mutant` names one attribute (of a class, or of the module a
function is called through), its wrong replacement and the fast specs
expected to kill it.  :func:`verify_mutant` applies the replacement
with pytest's ``monkeypatch`` (undone after the test), forces the
serial fleet path (``REPRO_FLEET_WORKERS=0``) so the patch reaches
every scan, and verifies the killer specs in a throwaway
:class:`~repro.experiments.ResultCache`: cache keys cannot see a
monkeypatch, so a shared cache would replay the correct kernel's rows.
docs/CLAIMS.md's mutation table lists each mutant and what killed it,
or that it survived.

A mutant too slow for Tier-1 (``tier1=False``) is verified by hand::

    PYTHONPATH=src python tests/mutants.py linux-no-pageblock-steal
"""

import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass

import pytest

import repro.mm.buddy
from repro.core.kernel import ContiguitasKernel
from repro.core.placement import PlacementPolicy
from repro.experiments import ResultCache, verify_claims
from repro.mm import LinuxKernel
from repro.mm.page import MigrateType


def _unconfined(self, migratetype, source, pinned):
    """Contiguitas without region confinement: every request, pinned
    and unmovable ones included, is served from the movable region."""
    return self.movable, MigrateType.MOVABLE, None


def _never(*_args, **_kwargs):
    return False


def _unbiased(self, source, pin_migration=False):
    """Every unmovable allocation takes the allocator's default
    direction, as if ``bias_enabled`` were False."""
    return None


_lifo_allocators = LinuxKernel._build_allocators


def _address_ordered(self):
    """Linux's free lists handed out lowest address first instead of
    LIFO (docs/INTERNALS.md, "Why free lists are LIFO")."""
    _lifo_allocators(self)
    self.buddy.prefer = "low"


@dataclass(frozen=True)
class Mutant:
    """One known-wrong kernel and the claims that must notice it."""

    name: str
    owner: object
    attr: str
    replacement: Callable
    #: the specs to verify, and on how many seeds (the spec's own first)
    killers: tuple[str, ...]
    seeds: int
    #: ``spec:claim`` of every claim the mutant breaks, in spec order,
    #: or ``spec:ExceptionName`` for a killer spec that raises; empty
    #: for a survivor (a Known fidelity gap in EXPERIMENTS.md)
    killed_by: tuple[str, ...]
    #: False: too slow for Tier-1, verified by hand (module docstring)
    tier1: bool = True


MUTANTS = (
    Mutant("contiguitas-unconfined", ContiguitasKernel,
           "allocator_for_request", _unconfined,
           killers=("ablation-pcp",), seeds=1,
           killed_by=("ablation-pcp:linux-scatters",
                      "ablation-pcp:confined")),
    Mutant("resizer-never-shrinks", ContiguitasKernel, "_shrink_one",
           _never, killers=("alg1-resizing",), seeds=1,
           killed_by=("alg1-resizing:spike-absorbed-and-returned",)),
    Mutant("resizer-never-expands", ContiguitasKernel, "_expand_one",
           _never, killers=("alg1-resizing",), seeds=1,
           killed_by=("alg1-resizing:OutOfMemoryError",)),
    Mutant("placement-unbiased", PlacementPolicy, "direction", _unbiased,
           killers=("ablation-placement",), seeds=1,
           killed_by=("ablation-placement:bias-shrinks-further",
                      "ablation-placement:bias-shrinks-more-often")),
    Mutant("linux-address-ordered", LinuxKernel, "_build_allocators",
           _address_ordered, killers=("ablation-pcp",), seeds=1,
           killed_by=()),
    Mutant("linux-no-pageblock-steal", repro.mm.buddy,
           "should_steal_pageblock", _never, killers=("ablation-pcp",),
           seeds=1, killed_by=(), tier1=False),
)


def verify_mutant(mutant: Mutant, monkeypatch, tmp_path) -> tuple:
    """``spec:claim`` of each claim *mutant*'s killer specs break with
    it applied, and ``spec:ExceptionName`` for a killer that raises."""
    monkeypatch.setattr(mutant.owner, mutant.attr, mutant.replacement)
    monkeypatch.setenv("REPRO_FLEET_WORKERS", "0")
    broken = []
    for spec in mutant.killers:
        try:
            verdicts = verify_claims([spec], seeds=mutant.seeds,
                                     cache=ResultCache(str(tmp_path)))
        except Exception as exc:
            broken.append(f"{spec}:{type(exc).__name__}")
            continue
        broken += [f"{v.spec}:{v.claim.id}" for v in verdicts if v.broken]
    return tuple(broken)


def main(names) -> int:
    """Verify the named mutants; exit 1 unless each breaks exactly its
    ``killed_by``."""
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    failed = 0
    for mutant in MUTANTS:
        if mutant.name not in names:
            continue
        with pytest.MonkeyPatch.context() as monkeypatch, \
                tempfile.TemporaryDirectory() as tmp:
            broken = verify_mutant(mutant, monkeypatch, tmp)
        print(f"{mutant.name}: {', '.join(broken) or 'survived'}")
        failed += broken != mutant.killed_by
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
