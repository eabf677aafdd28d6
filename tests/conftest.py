"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.core import ContiguitasConfig, ContiguitasKernel
from repro.mm import AllocSource, KernelConfig, LinuxKernel, MigrateType
from repro.mm import PageHandle
from repro.units import GIGAPAGE_FRAMES, MiB


def fresh_python(code: str, env: dict | None = None
                 ) -> subprocess.CompletedProcess:
    """Run *code* in a new interpreter with ``src/`` on the path — the
    only place import-time behaviour (lazy exports, import tiers) can be
    observed, since this process has long since imported everything."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        capture_output=True, text=True, timeout=120)


def make_linux(mem_mib: int = 32, **kwargs) -> LinuxKernel:
    """A small baseline kernel for tests."""
    return LinuxKernel(KernelConfig(mem_bytes=MiB(mem_mib), **kwargs))


def make_contiguitas(mem_mib: int = 32, **kwargs) -> ContiguitasKernel:
    """A small Contiguitas kernel for tests."""
    return ContiguitasKernel(ContiguitasConfig(mem_bytes=MiB(mem_mib),
                                               **kwargs))


def pin_one_per_pageblock(kernel) -> None:
    """Fill *kernel*, then free all but one page per pageblock and pin
    those: plenty of memory is free, but no 2 MiB block can be assembled,
    compaction or not."""
    movable = [kernel.alloc_pages(0) for _ in range(kernel.mem.nframes)]
    per_block = {}
    for h in movable:
        per_block.setdefault(kernel.mem.pageblock_of(h.pfn), h)
    for h in movable:
        if per_block.get(kernel.mem.pageblock_of(h.pfn)) is not h:
            kernel.free_pages(h)
    for victim in per_block.values():
        kernel.pin_pages(victim)


def free_list(buddy, order: int, mt) -> list[int]:
    """Heads on *buddy*'s (*order*, *mt*) free list, oldest first: a
    LIFO pop takes the last."""
    return list(buddy._walk(order * len(MigrateType) + mt))


def free_frames_by_type(buddy) -> dict[MigrateType, int]:
    """Free frames on each migrate type's lists, from *buddy*'s per-list
    counts (list index = order * len(MigrateType) + migrate type)."""
    nmt = len(MigrateType)
    frames = dict.fromkeys(MigrateType, 0)
    for li, n in enumerate(buddy._count):
        frames[MigrateType(li % nmt)] += n << li // nmt
    return frames


def live_handles(registry) -> list[PageHandle]:
    """Every live handle of a :class:`~repro.mm.HandleRegistry`
    (unordered)."""
    pfns = (registry.mem.handle_slot != -1).nonzero()[0]
    return list(map(registry.get, pfns.tolist()))


def anon_frames(workload) -> int:
    """Frames a workload's anonymous heap holds, at any page size."""
    chunks = [[c] if isinstance(c, PageHandle) else c
              for c in workload.anon_chunks]
    return (sum(h.nframes for chunk in chunks for h in chunk)
            + len(workload.gigapages) * GIGAPAGE_FRAMES)


def through_envelope(sections: dict) -> dict:
    """*sections* written as one checkpoint file and read back, as a
    resume reads them: arrays come back as read-only views, int64 ones
    narrowed where their range allows."""
    import tempfile

    from repro.checkpoint import encode_checkpoint, read_checkpoint
    from repro.checkpoint.format import Sections

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "sections.ckpt")
        with open(path, "wb") as fh:
            fh.writelines(encode_checkpoint("test", 0, Sections(sections)))
        return read_checkpoint(path).payload


def restored(kernel):
    """A fresh kernel of *kernel*'s class and config holding *kernel*'s
    state: ``snapshot()``, the checkpoint envelope, ``restore()`` — the
    path a resume takes, minus the sanitizer sweep."""
    from repro.mm.handle import HandleTable
    from repro.mm.sections import nest, scope

    table = HandleTable()
    sections = through_envelope({**nest("kernel", kernel.snapshot(table)),
                                 **nest("handles", table.snapshot())})
    fresh = type(kernel)(kernel.config)
    fresh.restore(scope("kernel", sections),
                  HandleTable.restore(scope("handles", sections)))
    return fresh


def deterministic_view(manifest: dict) -> dict:
    """The manifest minus its ``volatile`` section — the part that must
    be identical for identical (config, seed) runs at any worker count."""
    return {k: v for k, v in manifest.items() if k != "volatile"}


def fleet_scans(n_servers: int, **kwargs) -> list:
    """Every scan of :func:`repro.fleet.iter_fleet_scans`, filed by
    server index."""
    from repro.fleet import iter_fleet_scans

    scans = [None] * n_servers
    for index, scan in iter_fleet_scans(n_servers, **kwargs):
        scans[index] = scan
    return scans


def lint_source(source: str, path: str = "<string>") -> list:
    """Sorted, unsuppressed per-file findings for one source string;
    a syntactically invalid file yields a single ``SL000`` finding."""
    from repro.analysis.simlint.core import _run
    from repro.analysis.simlint.model import ProgramModel, module_name

    program = ProgramModel()
    program.add_source(source, str(path), module_name(str(path)))
    return _run(program)


@pytest.fixture
def toy_register():
    """``register`` for specs that live for one test: every name it
    registered is popped from the registry afterwards."""
    from repro.experiments import register
    from repro.experiments.spec import _REGISTRY

    names = []

    def add(spec):
        names.append(spec.name)
        return register(spec)

    yield add
    for name in names:
        _REGISTRY.pop(name, None)


@pytest.fixture
def no_backoff(monkeypatch):
    """Fleet retries run back to back instead of sleeping between
    attempts."""
    from repro.fleet import engine

    monkeypatch.setattr(engine, "DEFAULT_BACKOFF_BASE", 0.0)


@pytest.fixture
def linux() -> LinuxKernel:
    return make_linux()


@pytest.fixture
def contiguitas() -> ContiguitasKernel:
    return make_contiguitas()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


def churn(kernel, rng: random.Random, steps: int = 2000,
          unmovable_fraction: float = 0.2, pin_fraction: float = 0.02,
          free_probability: float = 0.45, fill_cache: bool = False,
          cache_churn: float = 0.0) -> list:
    """Drive a mixed allocate/free workload; returns live handles.

    With ``fill_cache=True`` memory is first filled with reclaimable page
    cache, the production steady state.  ``cache_churn`` adds a per-step
    probability of a fresh page-cache allocation (file reads), which keeps
    reclaim cycling through the address space — the regime where new
    allocations land at scattered just-reclaimed addresses and unmovable
    pages spread across pageblocks.
    """
    from repro.errors import OutOfMemoryError

    live = []
    if fill_cache:
        # Fill until the kernel has to reclaim: "memory is full" from the
        # allocator's point of view.  (free_frames() alone would spin on
        # Contiguitas, whose unmovable region never holds page cache.)
        from repro.mm import vmstat as ev

        before = kernel.stat[ev.PAGES_RECLAIMED]
        try:
            while (kernel.free_frames() > 0
                   and kernel.stat[ev.PAGES_RECLAIMED] == before):
                kernel.alloc_pages(0, reclaimable=True)
        except OutOfMemoryError:  # pragma: no cover - depends on layout
            pass
    for step in range(steps):
        if cache_churn and rng.random() < cache_churn:
            kernel.alloc_pages(0, reclaimable=True)
        if live and rng.random() < free_probability:
            handle = live.pop(rng.randrange(len(live)))
            if handle.pinned:
                kernel.unpin_pages(handle)
            kernel.free_pages(handle)
            continue
        r = rng.random()
        if r < pin_fraction:
            handle = kernel.alloc_pages(0)
            kernel.pin_pages(handle)
        elif r < pin_fraction + unmovable_fraction:
            source = rng.choice(
                [AllocSource.NETWORKING, AllocSource.SLAB,
                 AllocSource.FILESYSTEM, AllocSource.PAGETABLE])
            handle = kernel.alloc_pages(0, source=source)
        else:
            handle = kernel.alloc_pages(0)
        live.append(handle)
        if step % 250 == 0:
            kernel.advance(1000)
    return live
