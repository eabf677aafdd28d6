"""Verifying claims: every claim of the named specs over several seeds.

Each spec's seeds are the replicas of one scenario, run by
:func:`repro.scenarios.run_scenario` (the one grid loop), so the rows
come from, and land in, the result cache.  ``repro experiment verify``
prints the verdicts (:func:`render_markdown` is its per-claim index)
and exits 1 when a claim is broken on any seed or vacuous.  The claims
themselves are :mod:`repro.experiments.claims`' data, which every spec
family loads; this module only the verifier does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .claims import Claim

__all__ = ["Verdict", "render_markdown", "verify_claims"]


@dataclass(frozen=True)
class Verdict:
    """One claim of one spec over the seeds it was verified on."""

    spec: str
    claim: Claim
    seeds: tuple[int, ...]
    measured: tuple[str, ...]
    broken: tuple[int, ...]
    vacuous: bool

    @property
    def held(self) -> bool:
        return not self.broken and not self.vacuous

    def snapshot(self) -> dict:
        return {"spec": self.spec, "claim": self.claim.id,
                "kind": type(self.claim).__name__.lower(),
                "paper": self.claim.paper, "expected": self.claim.expected,
                "seeds": list(self.seeds), "measured": list(self.measured),
                "broken": list(self.broken), "vacuous": self.vacuous,
                "held": self.held}


def verify_claims(names, seeds: int = 3, cache=None,
                  workers: int | None = None) -> list[Verdict]:
    """Every claim of each spec in *names*, evaluated on the spec's
    seed and the ``seeds - 1`` after it (scenario replicas)."""
    from ..scenarios import ScenarioConfig, run_scenario, scenario_from_dict
    from .spec import get_spec

    if seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    verdicts = []
    for name in names:
        spec = get_spec(name)
        if not spec.claims:
            raise ConfigurationError(
                f"experiment {name!r} declares no claims")
        results = run_scenario(ScenarioConfig(
            scenario=scenario_from_dict({
                "name": spec.name, "description": spec.description,
                "experiment": spec.name, "replicas": seeds}),
            workers=workers), cache=cache).results
        for claim in spec.claims:
            outcomes = [claim.evaluate(result.rows) for result in results]
            broken = tuple(result.seed for result, (held, _)
                           in zip(results, outcomes) if not held)
            verdicts.append(Verdict(
                spec=spec.name, claim=claim,
                seeds=tuple(result.seed for result in results),
                measured=tuple(text for _, text in outcomes),
                broken=broken,
                vacuous=not broken and all(claim.vacuous(result.rows)
                                           for result in results)))
    return verdicts


def render_markdown(verdicts: list[Verdict]) -> str:
    """The per-claim index: one table line per claim, its spec linked
    to the spec's EXPERIMENTS.md section."""
    lines = ["| Spec | Claim | Paper | Expected | Measured (per seed) "
             "| Verdict |", "|---|---|---|---|---|---|"]
    for v in verdicts:
        seeds = "/".join(str(seed) for seed in v.seeds)
        measured = (v.measured[:1] if len(set(v.measured)) == 1
                    else v.measured)
        verdict = ("**broken** on seed " + ", ".join(map(str, v.broken))
                   if v.broken else
                   "**vacuous**: equal on every seed" if v.vacuous
                   else "held")
        cells = (f"[`{v.spec}`](../EXPERIMENTS.md#{v.spec})",
                 f"`{v.claim.id}`", v.claim.paper, v.claim.expected,
                 f"{seeds}: " + " / ".join(measured), verdict)
        lines.append("| " + " | ".join(
            cell.replace("|", "\\|") for cell in cells) + " |")
    return "\n".join(lines)
