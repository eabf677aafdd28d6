"""TLB shootdown protocols on the event engine (paper Fig. 1 vs §3.3).

Two migration protocols are modelled end to end:

* :func:`simulate_linux_migration` — the 7-step baseline: clear PTE, local
  invalidate, IPIs to every victim core, wait for all acks, copy the page,
  re-install the PTE.  The page is *unavailable* from PTE-clear until the
  PTE update; the duration grows linearly with victim count because IPI
  posting is serialised at the initiator.

* :func:`simulate_contiguitas_migration` — the Contiguitas-HW flow: the
  mapping is installed in the LLC metadata table, the copy proceeds in the
  background with traffic redirection, and every TLB invalidates *locally
  and lazily* the next time its core enters the kernel.  From a memory
  operation's perspective the page is only ever unavailable for one local
  invalidation.

Both return a :class:`MigrationTimeline`, so Fig. 13 falls directly out of
``unavailable_cycles`` across core counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .engine import EventQueue
from .params import KERNEL_ENTRY_GAP_CYCLES, ArchParams


@dataclass
class MigrationTimeline:
    """Cycle timestamps of one page migration."""

    start: int = 0
    #: When the page became available again at its (new) mapping.
    available_at: int = 0
    #: When the copy itself finished.
    copy_done_at: int = 0
    #: When the whole procedure (metadata cleanup included) finished.
    end: int = 0
    ack_times: list[int] = field(default_factory=list)

    @property
    def unavailable_cycles(self) -> int:
        """Cycles during which a memory operation to the page would stall
        (Fig. 13's y-axis)."""
        return self.available_at - self.start


def page_copy_cycles(params: ArchParams) -> int:
    """Cycles to copy one 4 KiB page through the cache hierarchy.

    64 lines, pipelined reads+writes at L2/L3 latency: lands at the ~1300
    cycles the paper measures for the copy stage.
    """
    per_line = params.l2_latency + 6  # pipelined read-modify-write
    return params.lines_per_page * per_line + params.l3_latency


def simulate_linux_migration(params: ArchParams,
                             victims: int) -> MigrationTimeline:
    """Run the Fig. 1 protocol against *victims* remote cores."""
    if victims < 0 or victims >= params.cores:
        raise ConfigurationError(
            f"victims={victims} impossible on {params.cores} cores")
    q = EventQueue()
    t = MigrationTimeline(start=q.now)
    state = {"acks": 0}

    def on_ack() -> None:
        state["acks"] += 1
        t.ack_times.append(q.now)
        if state["acks"] == victims:
            # Step 6: the initiator copies the page...
            q.after(page_copy_cycles(params), finish_copy)

    def finish_copy() -> None:
        t.copy_done_at = q.now
        # Step 7: ...then updates the PTE; the page is reachable again.
        t.available_at = q.now
        t.end = q.now

    # Step 1: clear PTE.  Step 2: local invalidation.
    local_done = q.now + params.invlpg_cycles
    # Step 3: post IPIs, serialised at the initiator.
    for i in range(victims):
        posted = local_done + (i + 1) * params.ipi_post_gap_cycles
        arrival = posted + params.ipi_deliver_cycles
        # Steps 4-5: remote handler flushes its TLB and acks.
        handler_done = (arrival + params.ipi_handler_overhead_cycles
                        + params.invlpg_cycles)
        q.at(handler_done + params.ipi_ack_cycles, on_ack)
    if victims == 0:
        q.at(local_done, lambda: q.after(page_copy_cycles(params),
                                         finish_copy))
    q.run()
    return t


def simulate_contiguitas_migration(params: ArchParams,
                                   victims: int) -> MigrationTimeline:
    """Run the Contiguitas-HW migration (§3.3, noncacheable design).

    The OS issues ``Migrate(src, dst)``; the LLC copies lines in the
    background while redirecting traffic.  Each core performs its local
    invalidation whenever the kernel next runs there (within
    :data:`~repro.sim.params.KERNEL_ENTRY_GAP_CYCLES`) — no IPIs, no
    waiting.  The page is unavailable only for the local INVLPG on the
    accessing core.
    """
    q = EventQueue()
    t = MigrationTimeline(start=q.now)

    # Enqueue the Migrate command and start the copy: the page remains
    # accessible the whole time, so from a memory op's point of view the
    # only stall is a single local TLB invalidation.
    t.available_at = q.now + params.invlpg_cycles

    copy = page_copy_cycles(params) + params.hw_table_latency * (
        params.lines_per_page)
    copy_done = q.now + copy

    def done() -> None:
        t.copy_done_at = copy_done
        t.end = q.now

    # Lazy local invalidations complete within one kernel-entry window on
    # each core, independently; the metadata entry is cleared after the
    # last one.  They overlap with the copy.
    last_invalidate = q.now + KERNEL_ENTRY_GAP_CYCLES
    q.at(max(copy_done, last_invalidate), done)
    q.run()
    return t
