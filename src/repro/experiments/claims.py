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

Every spec family imports this module to declare its claims;
evaluating them over seeds is :mod:`repro.experiments.verify`'s, which
only ``repro experiment verify`` loads.
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Mapping, NamedTuple

from ..errors import ConfigurationError

__all__ = ["Band", "Claim", "Ordered"]

_ID_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


def _num(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


class Claim:
    """One checked statement: an id unique within its spec, the paper's
    value as the paper states it, and the measure over the rows.  A
    kind is a named tuple of those fields and its own, and defines
    ``expected`` (the tolerated range, as text), ``holds`` and ``show``
    (one measured value, as text)."""

    __slots__ = ()

    def __init__(self, *fields, **named) -> None:
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


class _BandFields(NamedTuple):
    id: str
    paper: str
    measure: Callable[[list], Any]
    lo: float | None = None
    hi: float | None = None


class Band(_BandFields, Claim):
    """The measured number lies in ``[lo, hi]``, both ends inclusive."""

    __slots__ = ()

    def __init__(self, *fields, **named) -> None:
        super().__init__()
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


class _OrderedFields(NamedTuple):
    id: str
    paper: str
    measure: Callable[[list], Any]
    op: str = "<"


class Ordered(_OrderedFields, Claim):
    """Each measured number stands in ``op`` to the next."""

    __slots__ = ()

    def __init__(self, *fields, **named) -> None:
        super().__init__()
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
