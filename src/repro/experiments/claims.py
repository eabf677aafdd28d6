"""Claims: the paper's statements about a figure, as data on its spec.

A figure spec carries ``claims``, typed predicates over the rows of one
of its cells, each with the paper value it stands for.  Two kinds cover
every figure:

* :class:`Band` — a measured number lies in ``[lo, hi]`` (an end left
  ``None`` is open): the paper's magnitudes, widened by the deviation
  the reproduction tolerates;
* :class:`Ordered` — measured numbers, in the order given, satisfy one
  comparison (``<``, ``<=`` or ``==``) between neighbours: the paper's
  orderings, monotone trends and constants.  An ``<=`` claim that reads
  equal numbers on every seed is *vacuous*: it would hold on any
  simulator, so it is evidence of nothing.

A claim's ``measure`` maps the rows to its number (a :class:`Band`) or
its sequence (an :class:`Ordered`).  It may return a mapping
``{label: ...}`` instead, stating the claim once per label (per
service, per granularity); it then holds when it holds for every label.

:func:`verify_claims` evaluates every claim of the named specs over
several seeds.  Each spec's seeds are the replicas of one scenario, run
by :func:`repro.scenarios.run_scenario` (the one grid loop), so the rows
come from, and land in, the result cache.  ``repro experiment verify``
prints the verdicts and exits 1 when a claim is broken on any seed or
vacuous.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError

__all__ = ["Band", "Claim", "Ordered", "Verdict", "render_markdown",
           "verify_claims"]

_ID_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


def _num(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Claim:
    """One checked statement: an id unique within its spec, the paper's
    value as the paper states it, and the measure over the rows.  A
    kind defines ``expected`` (the tolerated range, as text), ``holds``
    and ``show`` (one measured value, as text)."""

    id: str
    paper: str
    measure: Callable[[list], Any]

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not _ID_RE.match(self.id):
            raise ConfigurationError(
                f"claim id {self.id!r} must be kebab-case")
        if not isinstance(self.paper, str) or not self.paper:
            raise ConfigurationError(
                f"claim {self.id!r}: paper must name the paper's value")
        if not callable(self.measure):
            raise ConfigurationError(
                f"claim {self.id!r}: measure must be callable")

    def evaluate(self, rows: list) -> tuple[bool, str]:
        """(held, measured text) over one cell's *rows*.  A per-label
        claim's text names the first label that breaks it; a measure
        that cannot read the rows, or measures no label at all, breaks
        the claim, naming why."""
        try:
            measured = self.measure(rows)
            if not isinstance(measured, Mapping):
                return self.holds(measured), self.show(measured)
            if not measured:
                return False, "no labels measured"
            for label, value in measured.items():
                if not self.holds(value):
                    return False, f"{label}: {self.show(value)}"
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            return False, f"{type(exc).__name__}: {exc}"
        return True, ", ".join(f"{label}: {self.show(value)}"
                               for label, value in measured.items())

    def vacuous(self, rows: list) -> bool:
        """Whether *rows* hold the claim whatever the simulator did."""
        return False


@dataclass(frozen=True)
class Band(Claim):
    """The measured number lies in ``[lo, hi]``, both ends inclusive."""

    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lo is None and self.hi is None:
            raise ConfigurationError(
                f"claim {self.id!r}: a band needs lo, hi or both")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ConfigurationError(
                f"claim {self.id!r}: lo {self.lo} is above hi {self.hi}")

    @property
    def expected(self) -> str:
        if self.lo == self.hi:
            return f"= {_num(self.lo)}"
        if self.hi is None:
            return f">= {_num(self.lo)}"
        if self.lo is None:
            return f"<= {_num(self.hi)}"
        return f"{_num(self.lo)} .. {_num(self.hi)}"

    def holds(self, value) -> bool:
        return ((self.lo is None or value >= self.lo)
                and (self.hi is None or value <= self.hi))

    def show(self, value) -> str:
        return _num(value)


@dataclass(frozen=True)
class Ordered(Claim):
    """Each measured number stands in ``op`` to the next."""

    op: str = "<"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.op not in _OPS:
            raise ConfigurationError(
                f"claim {self.id!r}: op must be one of {sorted(_OPS)}, "
                f"got {self.op!r}")

    @property
    def expected(self) -> str:
        return f"each {self.op} the next"

    def holds(self, values) -> bool:
        compare = _OPS[self.op]
        return len(values) > 1 and all(
            compare(a, b) for a, b in zip(values, values[1:]))

    def vacuous(self, rows: list) -> bool:
        """An ``<=`` chain whose every measured sequence is all-equal:
        ``0 <= 0`` holds however wrong the kernel is."""
        if self.op != "<=":
            return False
        measured = self.measure(rows)
        chains = (measured.values() if isinstance(measured, Mapping)
                  else [measured])
        return all(len(set(chain)) == 1 for chain in chains)

    def show(self, values) -> str:
        if len(values) > 2 and len(set(values)) == 1:
            return f"{len(values)} x {_num(values[0])}"
        return f" {self.op} ".join(_num(v) for v in values)


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
    from ..scenarios import Scenario, ScenarioConfig, run_scenario
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
            scenario=Scenario(name=spec.name, description=spec.description,
                              experiment=spec.name, replicas=seeds),
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
