"""What every workload shares: the run context and the workload shape.

A workload is set up from the seed, then runs whole *rounds* — each a
balanced pass over its item kinds (every service on both kernels, every
design on both apps, the whole scenario library) — until the measuring
time is used up.  Stopping only between rounds keeps the item mix, and
with it the meaning of "work per second", the same however fast the
host is.  Round 0's simulated outputs are what gets digested, so the
digest does not depend on how many rounds fitted.
"""

from __future__ import annotations

import os
import shutil
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field

from ..meter import Meter
from ..tracer import NullTracer, Tracer, tapped_kernel_class


@dataclass
class Check:
    """One output check's verdict."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunContext:
    """State of one workload run, handed to every workload hook."""

    seed: int
    quick: bool
    scratch: str
    meter: Meter = field(default_factory=Meter)
    tracer: Tracer | NullTracer = field(default_factory=NullTracer)
    #: Traced rounds completed (set before ``layer_metrics`` runs).
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    #: Exact, repeatable counts from round 0 (identical across runs of
    #: one seed; a host-only optimisation must not move them).
    exact: dict[str, float] = field(default_factory=dict)
    _tapped: dict[type, type] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    def item_seed(self, round_index: int, item_index: int = 0) -> int:
        """The seed of item *item_index* of round *round_index*: every
        input derives from ``--seed`` and nothing else."""
        return self.seed * 1_000_003 + round_index * 1_009 + item_index

    def kernel_class(self, base: type, layer: str) -> type:
        """*base*, or its tapped subclass while tracing."""
        if not self.tracer.enabled:
            return base
        cls = self._tapped.get(base)
        if cls is None:
            cls = self._tapped[base] = tapped_kernel_class(
                base, self.tracer, layer)
        return cls

    def fresh_dir(self, name: str) -> str:
        """An empty directory under the benchmark's own scratch."""
        path = os.path.join(self.scratch, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class Workload:
    """One named workload.  Subclasses fill in the hooks."""

    #: Name in ``BENCHMARK.json``.
    name = ""
    #: The work unit behind ``throughput_per_s``.
    unit = ""
    #: What one timed item is (``unit_us_p50`` is the median item time per unit).
    item = ""
    #: How often :meth:`setup` runs; ``setup_s`` reports the median.
    setup_repeats = 3
    #: Pin the worker and its children to one CPU (for workloads whose
    #: items are sequential subprocesses; see ``worker._pin_to_one_cpu``).
    one_cpu = False

    def setup(self, ctx: RunContext) -> None:
        """Build the inputs from ``ctx.seed`` and warm caches.  Runs
        :attr:`setup_repeats` times, so it must start from scratch."""

    def round(self, ctx: RunContext, index: int) -> dict:
        """Run one balanced round through ``ctx.meter.item`` and return
        its simulated outputs (JSON-able)."""
        raise NotImplementedError

    def taps(self, ctx: RunContext):
        """Context manager installing this workload's function wrappers
        for the traced run."""
        return nullcontext()

    def finish(self, ctx: RunContext, round0: dict) -> None:
        """Output checks after the timed region (``ctx.check``)."""

    def layer_metrics(self, ctx: RunContext) -> dict[str, float]:
        """Per-layer metrics of the traced run, by ``BENCHMARK.json``
        name; layers this workload bypasses are left out (reported 0)."""
        return {}


@contextmanager
def all_of(*managers):
    """Enter every context manager, exit in reverse."""
    with ExitStack() as stack:
        for manager in managers:
            stack.enter_context(manager)
        yield
