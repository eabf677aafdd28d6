"""Documented front-door configs that are not immutable (DL103 seeds):
a dataclass that is not frozen, and a ``NamedTuple`` subclass that has
an instance dict (no ``__slots__ = ()``) to set attributes in."""

from dataclasses import dataclass
from typing import NamedTuple


@dataclass
class FrontConfig:
    knob: int = 1


class _LeakyFields(NamedTuple):
    knob: int = 1


class LeakyConfig(_LeakyFields):
    pass
