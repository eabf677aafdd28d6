"""Runtime sanitizer (CONFIG_DEBUG_VM analogue): detection tests.

Each corruption test builds a healthy kernel, injects a specific class
of damage (double free, double alloc, migratetype drift, freelist /
occupancy divergence), and asserts the sanitizer raises the matching
typed error — with the offending PFN and, when a
:class:`~repro.analysis.sanitizer.FrameSanitizer` is attached, the
alloc/free history that led there.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.sanitizer import (
    ENV_FLAG,
    FrameSanitizer,
    debug_vm_enabled,
    verify_allocator,
    verify_kernel,
)
from repro.errors import (
    DoubleAllocError,
    DoubleFreeError,
    FreeOfUnallocatedError,
    FreelistDivergenceError,
    MigratetypeDriftError,
    SanitizerError,
    SimInvariantError,
)

from repro.mm import MigrateType
from repro.units import MAX_ORDER

from conftest import churn, free_list, make_linux


def make_debug_kernel(**kwargs):
    return make_linux(debug_vm=True, **kwargs)


def free_head_pfn(kernel) -> int:
    """Some PFN currently heading a free block on a buddy list."""
    for alloc in kernel.allocators():
        for order in range(MAX_ORDER + 1):
            for mt in MigrateType:
                for pfn in free_list(alloc, order, mt):
                    return pfn
    raise AssertionError("no free blocks at all")


class TestEnablement:
    def test_config_flag_attaches_sanitizer(self):
        assert make_debug_kernel().mem.sanitizer is not None
        assert make_linux(debug_vm=False).mem.sanitizer is None

    def test_env_flag(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert debug_vm_enabled()
        assert make_linux().mem.sanitizer is not None
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not debug_vm_enabled()
        assert make_linux().mem.sanitizer is None

    def test_config_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert make_linux(debug_vm=False).mem.sanitizer is None
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert make_debug_kernel().mem.sanitizer is not None

    def test_falsey_env_values(self, monkeypatch):
        for value in ("", "0", "off", "no", "FALSE"):
            monkeypatch.setenv(ENV_FLAG, value)
            assert not debug_vm_enabled()
        monkeypatch.setenv(ENV_FLAG, "yes")
        assert debug_vm_enabled()


class TestHealthyKernel:
    def test_churn_stays_consistent(self):
        kernel = make_debug_kernel()
        churn(kernel, random.Random(7), steps=800)
        verify_kernel(kernel)
        assert kernel.mem.sanitizer.events > 0

    def test_verify_method_delegates(self):
        kernel = make_debug_kernel()
        kernel.mem.sanitizer.verify(kernel)

    def test_check_consistency_routes_through_sanitizer(self):
        kernel = make_debug_kernel()
        churn(kernel, random.Random(8), steps=300)
        kernel.check_consistency()
        for alloc in kernel.allocators():
            verify_allocator(alloc)


class TestDoubleFree:
    def test_free_pages_twice_raises(self):
        kernel = make_debug_kernel()
        handle = kernel.alloc_pages(0)
        kernel.free_pages(handle)
        with pytest.raises(DoubleFreeError) as exc:
            kernel.free_pages(handle)
        assert exc.value.pfn == handle.pfn

    def test_mark_free_twice_carries_history(self):
        kernel = make_debug_kernel()
        handle = kernel.alloc_pages(0)
        pfn = handle.pfn
        kernel.mem.mark_free(pfn)
        with pytest.raises(DoubleFreeError) as exc:
            kernel.mem.mark_free(pfn)
        assert exc.value.pfn == pfn
        actions = [action for action, _, _ in exc.value.history]
        assert actions[-1] == "free"
        assert "alloc" in actions
        assert "history:" in str(exc.value)

    def test_free_of_never_allocated_frame(self):
        kernel = make_debug_kernel()
        free_pfn = free_head_pfn(kernel)
        with pytest.raises(FreeOfUnallocatedError) as exc:
            kernel.mem.mark_free(free_pfn)
        assert exc.value.pfn == free_pfn

    def test_without_sanitizer_still_typed(self):
        # The typed checks are always on; only the history needs the
        # sanitizer, so a production kernel degrades gracefully.
        kernel = make_linux(debug_vm=False)
        handle = kernel.alloc_pages(0)
        kernel.mem.mark_free(handle.pfn)
        with pytest.raises(SanitizerError) as exc:
            kernel.mem.mark_free(handle.pfn)
        assert exc.value.history == ()


class TestDoubleAlloc:
    def test_mark_allocated_over_live_order0(self):
        kernel = make_debug_kernel()
        handle = kernel.alloc_pages(0)
        info = kernel.mem.allocation_info(handle.pfn)
        with pytest.raises(DoubleAllocError) as exc:
            kernel.mem.mark_allocated(handle.pfn, 0, info.migratetype,
                                      info.source, birth=0)
        assert exc.value.pfn == handle.pfn
        assert exc.value.history[-1][0] == "alloc"

    def test_mark_allocated_overlapping_high_order(self):
        kernel = make_debug_kernel()
        handle = kernel.alloc_pages(0)
        info = kernel.mem.allocation_info(handle.pfn)
        base = handle.pfn & ~0b11  # order-2 block containing the live pfn
        with pytest.raises(DoubleAllocError):
            kernel.mem.mark_allocated(base, 2, info.migratetype,
                                      info.source, birth=0)


class TestCorruptionSweeps:
    def test_migratetype_drift_detected(self):
        kernel = make_debug_kernel()
        churn(kernel, random.Random(9), steps=200)
        pfn = free_head_pfn(kernel)
        kernel.mem.free_mt[pfn] = (int(kernel.mem.free_mt[pfn]) + 1) % 3
        with pytest.raises(MigratetypeDriftError) as exc:
            kernel.check_consistency()
        assert exc.value.pfn == pfn

    def test_nr_free_drift_detected(self):
        kernel = make_debug_kernel()
        alloc = kernel.allocators()[0]
        alloc.nr_free += 1
        with pytest.raises(FreelistDivergenceError):
            verify_allocator(alloc)

    def test_cleared_occupancy_bit_detected(self):
        kernel = make_debug_kernel()
        alloc = kernel.allocators()[0]
        for order in range(MAX_ORDER + 1):
            for mt in MigrateType:
                if free_list(alloc, order, mt):
                    alloc._occ[mt] &= ~(1 << order)
                    with pytest.raises(FreelistDivergenceError) as exc:
                        verify_allocator(alloc)
                    assert "occupancy" in str(exc.value)
                    return
        raise AssertionError("no free blocks at all")

    def test_allocated_frame_on_free_list_detected(self):
        kernel = make_debug_kernel()
        handle = kernel.alloc_pages(0)
        pfn = handle.pfn
        alloc = kernel.allocator_for(pfn)
        # Forge a freelist entry pointing at the live frame: link it on
        # list (order 0, UNMOVABLE).
        alloc._link(MigrateType.UNMOVABLE, pfn)
        with pytest.raises(FreelistDivergenceError):
            verify_allocator(alloc)

    def test_history_is_bounded(self):
        san = FrameSanitizer(history_len=4)
        for tick in range(10):
            san.note_alloc(1, 0, tick)
        assert len(san.history(1)) == 4
        assert san.history(1)[0][2] == 6  # oldest retained event


class TestErrorTypes:
    def test_hierarchy(self):
        for err in (DoubleAllocError, DoubleFreeError,
                    FreeOfUnallocatedError, MigratetypeDriftError,
                    FreelistDivergenceError):
            assert issubclass(err, SanitizerError)
        assert issubclass(SanitizerError, SimInvariantError)

    def test_message_carries_pfn_and_history(self):
        err = DoubleFreeError("frame already freed", pfn=42,
                              history=(("alloc", 0, 10), ("free", 0, 42)))
        text = str(err)
        assert "pfn 42" in text
        assert "alloc@10:o0 -> free@42:o0" in text
        assert err.pfn == 42
        assert err.history == (("alloc", 0, 10), ("free", 0, 42))
