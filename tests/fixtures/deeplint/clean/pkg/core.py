"""A package that satisfies every deep-pass contract."""

import random
from typing import NamedTuple

__all__ = ["CoreConfig", "run"]


class _CoreFields(NamedTuple):
    seed: int = 0


class CoreConfig(_CoreFields):
    __slots__ = ()


def tracepoint(name):
    return name


class MetricsRegistry:
    def inc(self, name, value=1):
        return name


TP_PING = tracepoint("pkg.ping")
metrics = MetricsRegistry()


def run(seed):
    metrics.inc("pkg.ops")
    rng = random.Random(f"core:run:{seed}")
    return rng.random()
