"""Allocation-trace record and replay."""

import io
import random

import pytest

from repro.analysis import unmovable_block_fraction
from repro.errors import ConfigurationError, ContiguityError, ReproError
from repro.mm import AllocSource
from repro.units import PAGEBLOCK_FRAMES
from repro.workloads import Workload, get_service
from repro.workloads.tracelog import (
    TRACE_VERSION,
    TraceEvent,
    TraceRecorder,
    load_trace,
    replay,
)

from conftest import make_contiguitas, make_linux, pin_one_per_pageblock


def record_churn(steps=800, seed=5, mem_mib=32, free_probability=0.45):
    """Record a mixed churn trace on a Linux kernel."""
    rng = random.Random(seed)
    recorder = TraceRecorder(make_linux(mem_mib))
    live = []
    for step in range(steps):
        if live and rng.random() < free_probability:
            handle = live.pop(rng.randrange(len(live)))
            recorder.free_pages(handle)
        else:
            roll = rng.random()
            if roll < 0.2:
                handle = recorder.alloc_pages(
                    0, source=AllocSource.NETWORKING)
            elif roll < 0.25:
                handle = recorder.alloc_pages(0)
                recorder.pin_pages(handle)
                recorder.unpin_pages(handle)
            else:
                handle = recorder.alloc_pages(0, reclaimable=(roll > 0.8))
            live.append(handle)
        if step % 100 == 0:
            recorder.advance(1000)
    return recorder


class TestRecording:
    def test_events_captured(self):
        recorder = record_churn(steps=100)
        ops = {e.op for e in recorder.events}
        assert {"alloc", "free", "advance"} <= ops
        assert len(recorder.events) >= 100

    def test_delegation_preserves_kernel_behaviour(self):
        recorder = record_churn(steps=100)
        recorder.kernel.check_consistency()
        assert recorder.free_frames() == recorder.kernel.free_frames()

    def test_foreign_handle_rejected(self):
        recorder = TraceRecorder(make_linux())
        foreign = recorder.kernel.alloc_pages(0)  # bypassed the recorder
        with pytest.raises(ReproError):
            recorder.free_pages(foreign)


def record_workload(make_kernel, steps=5, mem_mib=64, seed=3):
    """A production service driven through the recorder: the driver's
    cache fill is bulk, its heap backing tries THP first."""
    recorder = TraceRecorder(make_kernel(mem_mib))
    workload = Workload(recorder, get_service("web"), seed=seed)
    workload.start()
    for _ in range(steps):
        workload.step()
    return recorder, workload


class TestWorkloadCapture:
    """Every allocating call the workload driver makes is in the trace
    (bulk, THP and gigapage used to be forwarded unrecorded)."""

    @pytest.mark.parametrize("make_kernel", [make_linux, make_contiguitas])
    def test_replay_matches_capture_on_the_same_kernel_class(
            self, make_kernel):
        recorder, workload = record_workload(make_kernel)
        ops = {e.op for e in recorder.events}
        assert {"alloc", "thp", "advance"} <= ops
        # Far more allocs than the scalar calls alone: the cache fill.
        assert sum(e.op == "alloc" for e in recorder.events) > 5000
        target = make_kernel(64)
        result = replay(recorder.events, target)
        assert result.alloc_failures == 0
        original = recorder.kernel
        assert (target.stat["alloc_success"]
                == original.stat["alloc_success"])
        assert target.free_frames() == original.free_frames()
        assert (target.mem.unmovable_mask()
                == original.mem.unmovable_mask()).all()
        target.check_consistency()

    def test_stop_frees_cache_pages_the_recorder_saw(self):
        recorder, workload = record_workload(make_linux)
        workload.stop(keep_cache=False)     # used to raise ReproError
        target = make_linux(64)
        replay(recorder.events, target)
        assert target.free_frames() == recorder.kernel.free_frames()

    def test_bulk_is_recorded_as_the_pages_it_returned(self):
        recorder = TraceRecorder(make_linux())
        handles = recorder.alloc_pages_bulk(7, reclaimable=True)
        assert [e.op for e in recorder.events] == ["alloc"] * len(handles)
        assert all(e.reclaimable and e.order == 0 for e in recorder.events)
        for handle in handles:
            recorder.free_pages(handle)

    def test_failed_huge_attempts_are_recorded_and_replayed(self):
        kernel = make_linux(8)
        pin_one_per_pageblock(kernel)       # no 2 MiB block to be had
        recorder = TraceRecorder(kernel)
        assert recorder.alloc_thp() is None
        with pytest.raises(ContiguityError):
            recorder.alloc_gigapage()       # 8 MiB has no 1 GiB range
        assert [(e.op, e.obj) for e in recorder.events] == [
            ("thp", -1), ("gigapage", -1)]
        # Replayed where the attempt succeeds, the page is handed back:
        # the recorded workload never had it.
        target = make_linux(8)
        free_before = target.free_frames()
        result = replay(recorder.events, target)
        assert result.alloc_failures == 0 and not result.live_objects
        assert target.free_frames() == free_before
        assert target.stat["thp_alloc"] == 1

    def test_huge_page_missing_on_replay_is_a_skip(self):
        recorder = TraceRecorder(make_linux(8))
        huge = recorder.alloc_thp()
        assert huge is not None
        recorder.pin_pages(huge)
        recorder.unpin_pages(huge)
        recorder.free_pages(huge)
        target = make_linux(8)
        pin_one_per_pageblock(target)
        result = replay(recorder.events, target)
        assert result.alloc_failures == 1
        assert result.events == len(recorder.events)
        target.check_consistency()


class TestSerialisation:
    def test_save_load_roundtrip(self):
        recorder = record_churn(steps=150)
        buf = io.StringIO()
        n = recorder.save(buf)
        buf.seek(0)
        events = load_trace(buf)
        assert len(events) == n
        assert [e.op for e in events] == \
            [e.op for e in recorder.events]

    def test_version_2_ops_roundtrip(self):
        recorder, _ = record_workload(make_linux, steps=1)
        buf = io.StringIO()
        recorder.save(buf)
        assert f'"version": {TRACE_VERSION}' in buf.getvalue()
        buf.seek(0)
        assert load_trace(buf) == recorder.events

    def test_version_1_files_still_load(self):
        """Version 1 is a subset of the ops, not a different layout."""
        buf = io.StringIO(
            '{"version": 1, "events": 3}\n'
            '{"op":"alloc","obj":0,"order":0,"source":0,"pinned":false,'
            '"reclaimable":false,"dt":0}\n'
            '{"op":"advance","obj":-1,"order":0,"source":0,"pinned":false,'
            '"reclaimable":false,"dt":1000}\n'
            '{"op":"free","obj":0,"order":0,"source":0,"pinned":false,'
            '"reclaimable":false,"dt":0}\n')
        events = load_trace(buf)
        assert [e.op for e in events] == ["alloc", "advance", "free"]
        kernel = make_linux(8)
        free_before = kernel.free_frames()
        assert replay(events, kernel).alloc_failures == 0
        assert kernel.free_frames() == free_before

    def test_version_check(self):
        buf = io.StringIO('{"version": 99, "events": 0}\n')
        with pytest.raises(ConfigurationError):
            load_trace(buf)


class TestReplay:
    def test_replay_reproduces_state_on_same_kernel_type(self):
        recorder = record_churn(steps=600, seed=9)
        original = recorder.kernel
        target = make_linux(32)
        result = replay(recorder.events, target)
        assert result.alloc_failures == 0
        # Same kernel type + same trace => identical physical outcome.
        assert target.free_frames() == original.free_frames()
        assert (target.mem.unmovable_mask()
                == original.mem.unmovable_mask()).all()
        target.check_consistency()

    def test_replay_across_kernel_types(self):
        """The scientific use: one recorded trace, two kernels — the
        Contiguitas replay confines what the Linux original scattered."""
        recorder = record_churn(steps=1200, seed=11)
        cont = make_contiguitas(32)
        result = replay(recorder.events, cont)
        assert result.alloc_failures == 0
        assert cont.confinement_violations() == 0
        linux_scatter = unmovable_block_fraction(
            recorder.kernel.mem, PAGEBLOCK_FRAMES)
        cont_scatter = unmovable_block_fraction(cont.mem, PAGEBLOCK_FRAMES)
        assert cont_scatter <= linux_scatter
        cont.check_consistency()

    def test_replay_tolerates_oom_on_smaller_machine(self):
        recorder = record_churn(steps=3000, seed=3, mem_mib=32,
                                free_probability=0.3)
        tiny = make_linux(2)
        result = replay(recorder.events, tiny)
        assert result.alloc_failures > 0
        tiny.check_consistency()

    def test_replay_strict_mode_raises(self):
        from repro.errors import OutOfMemoryError

        recorder = record_churn(steps=3000, seed=3, mem_mib=32,
                                free_probability=0.3)
        with pytest.raises(OutOfMemoryError):
            replay(recorder.events, make_linux(2), tolerate_oom=False)

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            replay([TraceEvent(op="alloc", obj=0),
                    TraceEvent(op="explode", obj=0)], make_linux(8))
