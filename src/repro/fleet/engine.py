"""Supervised fleet execution: fan per-server simulations across cores.

The fleet survey (§2.4) runs N *independent* simulated servers — an
embarrassingly parallel job.  :func:`iter_fleet_scans` dispatches chunks
of payloads to a :class:`~concurrent.futures.ProcessPoolExecutor` under
a supervisor loop that retries failures with capped exponential backoff
and survives worker crashes — both genuine ones (a dead process breaks
the whole pool, which is rebuilt boundedly) and injected
``fleet.worker.crash`` faults (raised inside the worker by the payload
wrapper).  The result is bit-identical
to the serial loop it replaces:

* each server is seeded ``base_seed + index`` regardless of which worker
  runs it, in which order workers finish, or how many times the payload
  was retried — a retried server replays the same seed and produces the
  same scan;
* servers share no mutable state (each builds its own kernel), so the
  only thing crossing the process boundary is the payload tuple in and
  the :class:`~repro.fleet.server.ServerScan` out;
* every scan is yielded with its index, so callers file it in index
  order whatever the completion order.

Graceful degradation: a payload that exhausts its retry budget yields a
*degraded* placeholder scan (``failed=True`` plus the final error, which
carries the server index, seed, and attempt) instead of aborting the run,
so a chaos campaign always comes back with all N scans.

Worker count resolution order: explicit ``workers=`` argument, the
``REPRO_FLEET_WORKERS`` environment variable, then ``os.cpu_count()``.
Negative counts raise :class:`~repro.errors.ConfigurationError` from
either spelling.  Anything that resolves to one worker (including
single-core machines and ``n_servers == 1``) takes the serial path with
no pool at all — same supervision and retry semantics, no fork.
"""

from __future__ import annotations

import heapq
import os
import re
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..errors import ConfigurationError, WorkerCrashError
from ..telemetry import tracepoint
from ..units import FRAME_SIZE
from .server import ServerConfig, ServerScan, SimulatedServer

_tp_run_start = tracepoint("fleet.run.start")
_tp_server_done = tracepoint("fleet.server.done")
_tp_server_retry = tracepoint("fleet.server.retry")
_tp_server_fail = tracepoint("fleet.server.fail")
_tp_run_finish = tracepoint("fleet.run.finish")

#: Environment override for the default worker count (0 or 1 = serial).
WORKERS_ENV = "REPRO_FLEET_WORKERS"

#: Failed payloads are retried this many times before degrading.
DEFAULT_MAX_RETRIES = 2

#: First-retry backoff in seconds; doubles per attempt up to the cap.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 1.0

#: Submitted-but-unfinished payloads per worker; a small overcommit keeps
#: workers busy without queueing the whole fleet into the pool at once
#: (queued payloads cannot be rescheduled cheaply after a pool break).
_INFLIGHT_PER_WORKER = 2

#: A broken pool is rebuilt at most this many times before the supervisor
#: gives up on parallelism and drains the remaining payloads serially.
_MAX_POOL_REBUILDS = 3


@dataclass(frozen=True)
class WorkerOutcome:
    """One worker attempt's result, with enough context to debug a
    failure without the worker's stdout: every error string carries the
    server index, the seed, and the attempt number."""

    index: int
    seed: int
    attempt: int
    scan: ServerScan | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.scan is not None


#: The directory that holds the ``repro`` package.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))) + os.sep
_FRAME_FILE = re.compile(r'^(  File ")([^"]*)"', re.M)


def _portable(text: str) -> str:
    """A formatted traceback whose frames name their files alike in
    every checkout: ``repro/...`` under the package, a basename else."""
    def short(match) -> str:
        path = match.group(2)
        path = (path[len(_PACKAGE_ROOT):] if path.startswith(_PACKAGE_ROOT)
                else os.path.basename(path))
        return f'{match.group(1)}{path}"'
    return _FRAME_FILE.sub(short, text)


def _scan_payload(
    payload: tuple[int, ServerConfig | None, int, int],
) -> WorkerOutcome:
    """Run one supervised server attempt; module-level so it pickles.

    Catches *every* exception and returns it as a contextualised
    :class:`WorkerOutcome` error — the supervisor decides whether to
    retry, not the worker.  Injected ``fleet.worker.crash`` faults raise
    :class:`~repro.errors.WorkerCrashError` here, before the simulation
    starts, so a crashed attempt leaves no partial state behind and the
    retry replays the identical seed.
    """
    index, config, seed, attempt = payload
    try:
        plan = config.fault_plan if config is not None else None
        if plan is not None and plan.should_crash(seed, attempt):
            raise WorkerCrashError(
                f"injected worker crash (server {index}, seed {seed}, "
                f"attempt {attempt})")
        scan = SimulatedServer(config, seed=seed).run()
    except Exception as exc:
        return WorkerOutcome(
            index=index, seed=seed, attempt=attempt,
            error=(f"server {index} (seed {seed}, attempt {attempt}): "
                   f"{type(exc).__name__}: {exc}\n"
                   f"{_portable(traceback.format_exc(limit=8))}"))
    return WorkerOutcome(index=index, seed=seed, attempt=attempt, scan=scan)


def _degraded_scan(error: str) -> ServerScan:
    """Placeholder scan for a server whose retry budget ran out: the
    fleet result stays complete (all N indices present) and aggregates
    skip it via ``failed=True``."""
    return ServerScan(
        uptime_steps=0, free_frames=0, free_2m_blocks=0,
        contiguity={}, unmovable={}, sources={}, vmstat={},
        failed=True, error=error)


def _backoff(attempt: int) -> float:
    """Delay before retrying after failed *attempt* (0-based): capped
    exponential, ``min(DEFAULT_BACKOFF_CAP, DEFAULT_BACKOFF_BASE *
    2**attempt)``, read at call time; a base of 0 disables sleeping."""
    if DEFAULT_BACKOFF_BASE <= 0.0:
        return 0.0
    return min(DEFAULT_BACKOFF_CAP, DEFAULT_BACKOFF_BASE * (2 ** attempt))


def resolve_workers(workers: int | None = None) -> int:
    """Resolve an effective worker count (>= 1).

    ``None`` falls back to :data:`WORKERS_ENV`, then ``os.cpu_count()``.
    Negative counts raise :class:`~repro.errors.ConfigurationError`
    whether they arrive via the environment or the explicit argument —
    a typo should fail loudly, not silently run serial.  ``0`` is the
    documented "force serial" spelling and stays valid.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV}={env!r} is not an integer") from None
            if workers < 0:
                raise ConfigurationError(
                    f"{WORKERS_ENV}={env!r} must be >= 0 (0 = serial)")
        else:
            workers = os.cpu_count() or 1
    elif workers < 0:
        raise ConfigurationError(
            f"workers={workers} must be >= 0 (0 = serial)")
    return max(1, workers)


#: Rough per-frame bookkeeping cost of one simulated server: the packed
#: frame arrays (~22 B) plus the free-list link columns (~20 B) plus
#: Python-object slack, rounded up.  Deliberately conservative — the
#: footprint check must never green-light a survey that then OOMs.
_BYTES_PER_FRAME = 64

#: Fixed per-worker-process slack (interpreter, imports, scan buffers).
_WORKER_SLACK_BYTES = 32 << 20


def _available_memory_bytes() -> int | None:
    """``MemAvailable`` from ``/proc/meminfo``, or None where the file
    is absent/unreadable (non-Linux; the footprint check is skipped)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def estimate_survey_bytes(n_servers: int, mem_bytes: int,
                          workers: int | None = None) -> int:
    """Conservative peak resident footprint of one fleet survey.

    Servers run (and die) one at a time per worker process, so the
    concurrent cost is ``workers × one simulated server``, not
    ``n_servers × one`` — what made unbounded ``n_servers`` safe to
    allow in the first place.  Scans held by the caller cost a few KiB
    each and are charged per server.
    """
    nworkers = min(resolve_workers(workers), max(1, n_servers))
    per_server = (mem_bytes // FRAME_SIZE) * _BYTES_PER_FRAME
    return (nworkers * (per_server + _WORKER_SLACK_BYTES)
            + n_servers * 4096)


def check_survey_fit(n_servers: int, mem_bytes: int,
                     workers: int | None = None,
                     available_bytes: int | None = None) -> int:
    """Refuse a survey whose peak footprint exceeds available memory.

    Raises a typed :class:`~repro.errors.ConfigurationError` *before*
    any worker starts, naming the estimate and the remedy, instead of
    letting the OOM killer pick a victim mid-campaign.  Returns the
    estimated footprint in bytes.  With no *available_bytes* the check
    reads ``/proc/meminfo``; where that is unreadable the check is
    skipped (estimate still returned).
    """
    need = estimate_survey_bytes(n_servers, mem_bytes, workers)
    if available_bytes is None:
        available_bytes = _available_memory_bytes()
    if available_bytes is not None and need > available_bytes:
        raise ConfigurationError(
            f"fleet survey of {n_servers} servers x "
            f"{mem_bytes >> 20} MiB needs ~{need >> 20} MiB resident "
            f"({min(resolve_workers(workers), max(1, n_servers))} "
            f"concurrent workers) but only "
            f"{available_bytes >> 20} MiB is available; reduce "
            f"n_servers, mem_mib, or workers")
    return need


#: Upper bound on servers packed into one pool task when auto-chunking.
_MAX_CHUNK = 64


def _scan_chunk(
    payloads: list[tuple[int, ServerConfig | None, int, int]],
) -> list[WorkerOutcome]:
    """Run several supervised server attempts in one pool task.

    One fork/IPC round-trip per *chunk* instead of per server — the
    submission overhead that dominates thousand-server surveys.  Each
    server is still individually guarded by :func:`_scan_payload`, so
    one server's failure (including an injected crash fault) degrades
    that server's outcome only; the supervisor re-queues it as a
    singleton retry with its per-server attempt count intact.
    """
    return [_scan_payload(p) for p in payloads]


def _resolve_chunk(n_servers: int, nworkers: int) -> int:
    """Servers per pool task: a few chunks per inflight slot, so the
    tail of the run stays load-balanced.  Results are bit-identical for
    every chunk size — chunking changes packaging, never seeding or
    supervision."""
    return max(1, min(_MAX_CHUNK,
                      n_servers // (nworkers * _INFLIGHT_PER_WORKER * 4)))


def iter_fleet_scans(n_servers: int,
                     config: ServerConfig | None = None,
                     base_seed: int = 0,
                     workers: int | None = None,
                     indices=None):
    """Run *n_servers* independent servers under supervision and stream
    ``(index, scan)`` pairs as they complete.

    The raw engine under :func:`repro.fleet.run_fleet` and
    :func:`repro.fleet.survey_fleet`.  Each scan is handed to the caller
    the moment it lands instead of accumulating in a list, so
    aggregation memory stays flat however many servers the survey
    spans.  Parallel runs yield in completion order; the serial path
    yields in index order.  Every index is yielded exactly once, and
    server *i*'s scan equals ``SimulatedServer(config, seed=base_seed +
    i).run()`` for every worker count — including every
    retried-then-recovered server when faults are injected.  A server
    whose :data:`DEFAULT_MAX_RETRIES` retries all fail comes back as a
    degraded ``failed=True`` scan.

    ``indices`` restricts the run to a subset of server indices
    (default: all of ``range(n_servers)``) without changing any
    server's seed — the checkpoint/resume path uses it to finish only
    the servers a killed survey never completed, and each resumed
    server is bit-identical to its uninterrupted self because seeding
    is ``base_seed + index`` either way.
    """
    if indices is None:
        indices = range(n_servers)
    else:
        indices = [i for i in indices if 0 <= i < n_servers]
    nworkers = min(resolve_workers(workers), max(1, len(indices)))
    t0 = time.perf_counter()
    if _tp_run_start.enabled:
        _tp_run_start.emit(n_servers=n_servers, workers=nworkers,
                           base_seed=base_seed)
    n_failed = 0
    if nworkers <= 1:
        for i in indices:
            scan, failed = _supervise_one(i, config, base_seed + i, 0, t0)
            n_failed += failed
            yield i, scan
    else:
        for index, scan, failed in _iter_supervised(
                config, base_seed, indices, nworkers,
                _resolve_chunk(len(indices), nworkers), t0):
            n_failed += failed
            yield index, scan
    if _tp_run_finish.enabled:
        _tp_run_finish.emit(n_servers=n_servers, workers=nworkers,
                            n_failed=n_failed,
                            seconds=time.perf_counter() - t0)


def _supervise_one(index: int, config: ServerConfig | None, seed: int,
                   start_attempt: int,
                   t0: float) -> tuple[ServerScan, bool]:
    """Drive one payload to completion in-process (the serial engine and
    the broken-pool drain): bounded retries with capped exponential
    backoff, then a degraded scan.  Returns ``(scan, degraded?)``."""
    error = ""
    for attempt in range(start_attempt, DEFAULT_MAX_RETRIES + 1):
        if attempt > start_attempt:
            delay = _backoff(attempt - 1)
            if delay > 0.0:
                time.sleep(delay)
        outcome = _scan_payload((index, config, seed, attempt))
        if outcome.ok:
            if _tp_server_done.enabled:
                _tp_server_done.emit(index=index, seed=seed,
                                     uptime_steps=outcome.scan.uptime_steps,
                                     seconds=time.perf_counter() - t0)
            return outcome.scan, False
        error = outcome.error
        if attempt < DEFAULT_MAX_RETRIES and _tp_server_retry.enabled:
            _tp_server_retry.emit(index=index, seed=seed, attempt=attempt)
    if _tp_server_fail.enabled:
        _tp_server_fail.emit(index=index, seed=seed,
                             attempts=DEFAULT_MAX_RETRIES + 1 - start_attempt,
                             error=error.splitlines()[0] if error else "")
    return _degraded_scan(error), True


def _iter_supervised(config: ServerConfig | None, base_seed: int, indices,
                     nworkers: int, chunk: int, t0: float):
    """The parallel supervisor: submit/collect loop over a process pool,
    yielding ``(index, scan, degraded?)`` as results land.

    Invariants: every index is yielded exactly once (real or degraded);
    a payload is charged one attempt per submission or pool break;
    attempts never exceed ``DEFAULT_MAX_RETRIES + 1``.  Fresh payloads
    are packed up to *chunk* per task; retries always travel as
    singletons so each server keeps its own attempt count and backoff.
    """
    pending: deque[tuple[int, int]] = deque((i, 0) for i in indices)
    delayed: list[tuple[float, int, int]] = []   # (ready_at, index, attempt)
    inflight: dict = {}                          # future -> entries
    ready: deque[tuple[int, ServerScan, bool]] = deque()
    rebuilds = 0
    pool = ProcessPoolExecutor(max_workers=nworkers)

    def handle_failure(index: int, attempt: int, error: str) -> None:
        seed = base_seed + index
        if attempt < DEFAULT_MAX_RETRIES:
            if _tp_server_retry.enabled:
                _tp_server_retry.emit(index=index, seed=seed, attempt=attempt)
            delay = _backoff(attempt)
            if delay > 0.0:
                heapq.heappush(
                    delayed,
                    (time.perf_counter() + delay, index, attempt + 1))
            else:
                pending.append((index, attempt + 1))
        else:
            ready.append((index, _degraded_scan(error), True))
            if _tp_server_fail.enabled:
                _tp_server_fail.emit(
                    index=index, seed=seed, attempts=attempt + 1,
                    error=error.splitlines()[0] if error else "")

    try:
        while pending or delayed or inflight:
            now = time.perf_counter()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(delayed)
                pending.append((index, attempt))
            while pending and len(inflight) < nworkers * _INFLIGHT_PER_WORKER:
                entries = [pending.popleft()]
                if entries[0][1] == 0:
                    # Pack fresh neighbours into the task; a retry is
                    # never co-packed (its backoff and attempt count
                    # are its own).
                    while (pending and len(entries) < chunk
                           and pending[0][1] == 0):
                        entries.append(pending.popleft())
                task = [(i, config, base_seed + i, a) for i, a in entries]
                inflight[pool.submit(_scan_chunk, task)] = entries
            if not inflight:
                # Everything left is backing off; sleep until the first
                # delayed payload is ready for resubmission.
                time.sleep(max(0.0, delayed[0][0] - time.perf_counter()))
                continue

            timeout = max(0.0, delayed[0][0] - now) if delayed else None
            done, _ = wait(list(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            broken = False
            for fut in done:
                entries = inflight.pop(fut)
                try:
                    outcomes = fut.result()
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool):
                        broken = True
                    for index, attempt in entries:
                        seed = base_seed + index
                        handle_failure(
                            index, attempt,
                            f"server {index} (seed {seed}, attempt "
                            f"{attempt}): pool failure: "
                            f"{type(exc).__name__}: {exc}")
                    continue
                for (index, attempt), outcome in zip(entries, outcomes):
                    if outcome.ok:
                        ready.append((index, outcome.scan, False))
                        if _tp_server_done.enabled:
                            _tp_server_done.emit(
                                index=index, seed=outcome.seed,
                                uptime_steps=outcome.scan.uptime_steps,
                                seconds=time.perf_counter() - t0)
                    else:
                        handle_failure(index, attempt, outcome.error)
            while ready:
                yield ready.popleft()

            if broken:
                # A worker died hard and took the pool down; every other
                # in-flight payload is lost with it.  Charge each an
                # attempt and rebuild, boundedly.
                for entries in inflight.values():
                    for index, attempt in entries:
                        seed = base_seed + index
                        handle_failure(
                            index, attempt,
                            f"server {index} (seed {seed}, attempt "
                            f"{attempt}): lost to broken process pool")
                inflight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                rebuilds += 1
                if rebuilds > _MAX_POOL_REBUILDS:
                    # Parallelism itself is the failure mode here; drain
                    # the remainder serially — degraded throughput beats
                    # a dead run.
                    while delayed:
                        _, index, attempt = heapq.heappop(delayed)
                        pending.append((index, attempt))
                    while pending:
                        index, attempt = pending.popleft()
                        scan, failed = _supervise_one(
                            index, config, base_seed + index, attempt, t0)
                        yield index, scan, failed
                    while ready:
                        yield ready.popleft()
                    return
                pool = ProcessPoolExecutor(max_workers=nworkers)
        while ready:
            yield ready.popleft()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
