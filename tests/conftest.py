"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.core import ContiguitasConfig, ContiguitasKernel
from repro.mm import AllocSource, KernelConfig, LinuxKernel
from repro.units import MiB


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
