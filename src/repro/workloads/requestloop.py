"""Simulated request-serving loops: NGINX/memcached on the timing core.

The §5.3 interference experiment, re-run at instruction granularity
instead of analytically: each request executes compute instructions and
touches its connection's networking-buffer pages through the cache/TLB
hierarchy.  When Contiguitas-HW is migrating a buffer (noncacheable
design), accesses to it are served from the LLC for the migration window;
the loop measures the throughput delta directly.

Two entry points share the serving machinery:

* :meth:`RequestLoop.run` — the closed-loop throughput probe (requests
  issue back to back; used by the Fig. 13 relative-throughput sweep);
* :meth:`RequestLoop.serve_request` — serve exactly one request at the
  core's current cycle clock, which is what the open-loop generator in
  :mod:`repro.workloads.tracegen` drives so queueing delay stays real.

Determinism contract: the loop draws page choices and migration victims
from *separate* named streams (``requestloop:pages:<seed>`` and
``requestloop:migrate:<seed>``), never from module or global state.  Two
loops built with the same seed are bit-identical regardless of
construction order, and enabling migrations cannot perturb the
page-access sequence of the run it interferes with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.hwext.metadata import AccessMode
from ..sim.core import TimingCore
from ..sim.params import ArchParams, DEFAULT_PARAMS
from ..units import FRAME_SIZE
from .interference import ServerApp, migration_window_cycles


@dataclass
class LoopResult:
    """Throughput of one simulated serving run."""

    requests: int
    cycles: float
    migrations_seen: int

    @property
    def requests_per_kilocycle(self) -> float:
        return 1000.0 * self.requests / self.cycles if self.cycles else 0.0


class MigrationSchedule:
    """Buffer-migration windows on the core's cycle clock.

    Converts a migration rate to a cycle cadence and tracks the page
    currently in the noncacheable state.  The victim stream is seeded
    separately from the page-choice stream so arming migrations never
    changes which pages the requests themselves touch.
    """

    __slots__ = ("window", "cycles_between", "next_start", "window_end",
                 "migrating_page", "windows_seen", "hot_pages",
                 "_retouched", "_rng")

    def __init__(self, params: ArchParams, migrations_per_second: float,
                 hot_pages: int, seed: int = 0) -> None:
        self.window = migration_window_cycles(params)
        if migrations_per_second > 0:
            self.cycles_between = (params.freq_ghz * 1e9
                                   / migrations_per_second)
        else:
            self.cycles_between = float("inf")
        self.next_start = self.cycles_between
        self.window_end = -1.0
        self.migrating_page = -1
        self.windows_seen = 0
        self.hot_pages = hot_pages
        self._retouched: set[int] = set()
        self._rng = random.Random(f"requestloop:migrate:{seed}")

    def advance(self, now: float) -> None:
        """Open a migration window if the cadence says one is due.

        Windows whose entire span fell inside an idle gap (open-loop
        runs have those) are counted but interfere with nothing — no
        request was in flight to observe them.
        """
        if now < self.next_start:
            return
        # Migrations target in-use (hot) buffers — that is what makes
        # them unmovable in the first place.
        missed = int((now - self.next_start) // self.cycles_between)
        self.next_start += (missed + 1) * self.cycles_between
        self.windows_seen += missed + 1
        self.migrating_page = self._rng.randrange(self.hot_pages)
        self.window_end = now + self.window
        self._retouched.clear()

    def pays_penalty(self, now: float, page: int, mode: AccessMode) -> bool:
        """Whether an access to *page* at *now* is served from the LLC."""
        if now >= self.window_end or page != self.migrating_page:
            return False
        if mode is AccessMode.NONCACHEABLE:
            return True
        # Cacheable design: one re-fetch after the invalidation, then
        # the private copy is warm again.
        if page in self._retouched:
            return False
        self._retouched.add(page)
        return True

    def overlaps_since(self, start: float) -> bool:
        """Whether any window has been open at or after cycle *start*.

        ``window_end`` only ever grows, so after serving a request that
        began at *start* this answers "did the request overlap a
        migration window in time" — the during/outside classification
        the tail-latency split reports.
        """
        return self.window_end > start


class RequestLoop:
    """A request-serving application on one timing core.

    Args:
        app: application profile (buffer intensity distinguishes
            memcached from NGINX).
        buffer_pages: networking buffer pool the requests touch.
        instructions_per_request: compute per request.
        accesses_per_request: buffer-page touches per request.
    """

    def __init__(self, app: ServerApp,
                 params: ArchParams = DEFAULT_PARAMS,
                 buffer_pages: int = 64,
                 instructions_per_request: int = 400,
                 seed: int = 0) -> None:
        self.app = app
        self.params = params
        self.core = TimingCore(params)
        self.seed = seed
        # Page choices draw from their own named stream (distinct from
        # the migration-victim stream in MigrationSchedule and from any
        # other component seeded with the same integer) so equal-seed
        # loops are bit-identical however many are built, in whatever
        # order, with or without migrations armed.
        self.rng = random.Random(f"requestloop:pages:{seed}")
        self.buffer_pages = buffer_pages
        #: Hot working set: a few RX/TX buffers serve most traffic; the
        #: pages under migration are precisely these in-use buffers.
        self.hot_pages = max(1, buffer_pages // 8)
        self.hot_weight = 0.8
        self.instructions_per_request = instructions_per_request
        # Touches per request scale with the app's buffer intensity.
        self.accesses_per_request = max(
            1, int(instructions_per_request * app.buffer_access_intensity))

    def make_schedule(self, migrations_per_second: float
                      ) -> MigrationSchedule:
        """A migration schedule bound to this loop's hot set and seed."""
        return MigrationSchedule(self.params, migrations_per_second,
                                 self.hot_pages, seed=self.seed)

    def serve_request(self,
                      mode: AccessMode = AccessMode.NONCACHEABLE,
                      schedule: MigrationSchedule | None = None,
                      instructions: int | None = None) -> float:
        """Serve one request starting at the core's current cycle clock.

        Returns the service time in cycles.  *instructions* overrides
        the per-request instruction count (the trace-driven generator
        draws it from a service-time distribution); buffer touches scale
        with the app's intensity as in the fixed-size case.
        """
        core = self.core
        p = self.params
        stats = core.stats
        start = stats.cycles
        if instructions is None:
            n_instr = self.instructions_per_request
            accesses = self.accesses_per_request
        else:
            n_instr = instructions
            accesses = max(1, int(n_instr * self.app.buffer_access_intensity))
        # Compute portion: a count, not a call per instruction.
        core.retire(max(0, n_instr - accesses))
        # Buffer touches.
        base_vaddr = 0x10_0000_0000
        execute = core.execute
        rand, randrange = self.rng.random, self.rng.randrange
        hot_weight = self.hot_weight
        hot_pages, buffer_pages = self.hot_pages, self.buffer_pages
        for _ in range(accesses):
            if rand() < hot_weight:
                page = randrange(hot_pages)
            else:
                page = randrange(buffer_pages)
            now = stats.cycles
            vaddr = base_vaddr + page * FRAME_SIZE + randrange(64) * 64
            if schedule is not None:
                if now >= schedule.next_start:
                    schedule.advance(now)
                if schedule.pays_penalty(now, page, mode):
                    # Served from the LLC: charge the latency difference
                    # on top of the normal (cached) access.
                    execute(vaddr)
                    penalty = (p.l3_latency - p.l1_latency) * (
                        1.0 - core.overlap)
                    stats.cycles += penalty
                    stats.data_cycles += penalty
                    continue
            execute(vaddr)
        return stats.cycles - start

    def run(self, requests: int,
            migrations_per_second: float = 0.0,
            mode: AccessMode = AccessMode.NONCACHEABLE) -> LoopResult:
        """Serve *requests* back to back while buffers migrate.

        Migration windows are scheduled by converting the rate to cycles;
        a request touching a page inside a window pays LLC latency on
        every buffer access (noncacheable) or on the first touch only
        (cacheable).
        """
        schedule = None
        if migrations_per_second > 0:
            schedule = self.make_schedule(migrations_per_second)
        for _ in range(requests):
            self.serve_request(mode=mode, schedule=schedule)
        return LoopResult(
            requests=requests,
            cycles=self.core.stats.cycles,
            migrations_seen=schedule.windows_seen if schedule else 0)


def relative_throughput_simulated(
    app: ServerApp,
    migrations_per_second: float,
    mode: AccessMode = AccessMode.NONCACHEABLE,
    requests: int = 2000,
    seed: int = 0,
) -> float:
    """Simulated application throughput relative to a migration-free
    run: the counterpart of ``1 -`` the analytic
    :func:`repro.workloads.interference.interference_overhead`.

    A real second is billions of cycles — far beyond instruction-level
    simulation — so the run applies a rate *boost* (chosen so dozens of
    migration windows land inside the simulated span) and scales the
    measured overhead back down; migration interference is linear in
    rate, which the analytic model and the boosted sweep both confirm.
    """
    quiet = RequestLoop(app, seed=seed).run(requests)
    if migrations_per_second <= 0:
        return 1.0
    # Target ~40 windows within the simulated cycle span.
    span_seconds = quiet.cycles / (DEFAULT_PARAMS.freq_ghz * 1e9)
    expected = migrations_per_second * span_seconds
    boost = max(1.0, 40.0 / max(expected, 1e-12))
    noisy = RequestLoop(app, seed=seed).run(
        requests, migrations_per_second=migrations_per_second * boost,
        mode=mode)
    overhead_boosted = 1.0 - (noisy.requests_per_kilocycle
                              / quiet.requests_per_kilocycle)
    return 1.0 - max(0.0, overhead_boosted) / boost
