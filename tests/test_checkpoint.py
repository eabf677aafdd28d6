"""Durable checkpoint/restore: envelope, store, watchdog, and the
crash-recovery contract — a run killed at any checkpoint boundary and
resumed produces byte-identical results to an uninterrupted run."""

import gc
import json
import os
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    DEFAULT_DEADLINE_S,
    FORMAT_VERSION,
    MAGIC,
    CheckpointStore,
    DeadlineWatchdog,
    encode_checkpoint,
    inspect_checkpoint,
    read_checkpoint,
)
from repro.errors import (
    CheckpointCorruptError,
    CheckpointVersionError,
    CheckpointWriteError,
    ConfigurationError,
    SimCrashError,
)
from repro.faults import FaultPlan, FaultSpec, NAMED_PLANS, injecting
from repro.units import MiB

from conftest import deterministic_view, free_list, restored


def _envelope(*args, **kwargs) -> bytes:
    """One checkpoint file's bytes."""
    return b"".join(encode_checkpoint(*args, **kwargs))


class TestEnvelope:
    def test_encode_read_round_trip(self, tmp_path):
        path = tmp_path / "x.ckpt"
        payload = {"nums": list(range(50)), "nested": {"a": (1, 2)}}
        path.write_bytes(_envelope(
            "demo", 7, payload, meta={"seed": 3}))
        ckpt = read_checkpoint(path)
        assert ckpt.kind == "demo"
        assert ckpt.step == 7
        assert ckpt.meta == {"seed": 3}
        assert ckpt.payload == payload

    def test_truncation_is_typed_corruption(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = _envelope("demo", 1, {"k": "v" * 100})
        path.write_bytes(data[:-10])
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(path)

    def test_short_file_is_typed_corruption(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"RP")
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_checkpoint(path)

    def test_bit_flip_breaks_checksum(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = bytearray(_envelope("demo", 1, {"k": "v" * 100}))
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint(path)

    def test_version_skew_is_its_own_type(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = bytearray(_envelope("demo", 1, {}))
        data[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "big")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError):
            read_checkpoint(path)
        # ...and the subclassing means generic corruption handling —
        # including the store's last-good fallback — catches it too.
        assert issubclass(CheckpointVersionError, CheckpointCorruptError)

    def test_previous_format_version_is_refused(self, tmp_path):
        """Versions 1-9 held one pickled payload — the workload kind's a
        pickled kernel and driver, whose layout every refactor froze
        anew (version 2 a numpy-backed Histogram, 3 ``_Expiry`` heap
        entries, 4 ``PageHandle`` slot state, 5 an eager handle
        registry, 6 live-only slots, 7 ``FreeList`` objects, 8 an
        expiry heap, 9 ``PageHandle.__reduce__`` records); version 10
        is a section table of arrays and JSON, 11 the same with the
        handle registry as a frame column and a slot array, 12 the same
        with ``WorkloadConfig`` and the fleet's pickled config and
        aggregator rid of their test-only fields.  Resuming any older
        file must stop at the envelope, not mid-decode."""
        assert FORMAT_VERSION == 12
        path = tmp_path / "x.ckpt"
        for old in range(1, 12):
            data = bytearray(_envelope("workload", 1, {}))
            data[4:8] = old.to_bytes(4, "big")
            path.write_bytes(bytes(data))
            with pytest.raises(CheckpointVersionError,
                               match=f"version {old} "):
                read_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        data = bytearray(_envelope("demo", 1, {}))
        data[:4] = b"JUNK"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="magic"):
            read_checkpoint(path)
        assert MAGIC == b"RPCK"

    def test_inspect_statuses(self, tmp_path):
        good = tmp_path / "good.ckpt"
        good.write_bytes(_envelope("demo", 4, {"a": 1},
                                           meta={"seed": 9}))
        info = inspect_checkpoint(good)
        assert info["status"] == "ok"
        assert info["kind"] == "demo" and info["step"] == 4
        assert info["meta"] == {"seed": 9}

        assert inspect_checkpoint(tmp_path / "nope.ckpt")["status"] \
            == "missing"

        flipped = bytearray(good.read_bytes())
        flipped[-1] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(flipped))
        assert inspect_checkpoint(bad)["status"] == "corrupt"

        skew = bytearray(good.read_bytes())
        skew[4:8] = (99).to_bytes(4, "big")
        vsk = tmp_path / "skew.ckpt"
        vsk.write_bytes(bytes(skew))
        assert inspect_checkpoint(vsk)["status"] == "version-skew"


#: ``gc.isenabled()`` as seen from inside pickle.dumps / pickle.loads.
_collector_seen = []


def _collector_probe(corrupt):
    _collector_seen.append(("loads", gc.isenabled()))
    if corrupt:
        raise ValueError("a blob that passes the checksum and will not load")
    return 0


class _CollectorProbe:
    def __init__(self, corrupt=False):
        self.corrupt = corrupt

    def __reduce__(self):
        _collector_seen.append(("dumps", gc.isenabled()))
        return _collector_probe, (self.corrupt,)


class TestCollectorPaused:
    """Encode and decode run with the cyclic collector off and leave it
    exactly as they found it, on every exit path."""

    @pytest.fixture(autouse=True)
    def _put_the_collector_back(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_after_equals_state_before(self, tmp_path, enabled):
        (gc.enable if enabled else gc.disable)()
        path = tmp_path / "x.ckpt"
        del _collector_seen[:]
        path.write_bytes(_envelope("demo", 1, _CollectorProbe()))
        assert gc.isenabled() is enabled
        assert read_checkpoint(path).payload == 0
        assert gc.isenabled() is enabled

        with pytest.raises((pickle.PicklingError, AttributeError)):
            _envelope("demo", 1, lambda: None)
        assert gc.isenabled() is enabled
        path.write_bytes(_envelope("demo", 1, _CollectorProbe(True)))
        with pytest.raises(CheckpointCorruptError, match="unpickle failed"):
            read_checkpoint(path)
        assert gc.isenabled() is enabled
        assert _collector_seen == [("dumps", False), ("loads", False)] * 2


class TestPayloadShape:
    """A ``workload`` checkpoint is data: array and JSON sections and no
    pickle.  A handle is one row of the handle table however many
    holders name it, a bulk page nobody named one int of the slot
    table, and an int64 frame column is written at the narrowest width
    that holds its range."""

    @pytest.mark.parametrize("kernel_name", ["linux", "contiguitas"])
    def test_a_workload_checkpoint_is_typed_sections(self, kernel_name,
                                                     tmp_path):
        from repro.workloads import WorkloadConfig, run_workload

        config = WorkloadConfig("web", kernel_name, MiB(64), steps=60,
                                seed=11)
        run_workload(config, checkpoint_every=60,
                     checkpoint_dir=str(tmp_path))
        store = CheckpointStore(str(tmp_path), "workload")
        table = {entry["name"]: entry
                 for entry in store.inspect()["generations"][0]["sections"]}
        assert {entry["type"] for entry in table.values()} == {
            "array", "json"}
        # 16,384 frames: every PFN, and the -1 list end, fits int16.
        for column in ("head_of", "free_next", "free_prev"):
            assert table[f"kernel.mem.{column}"]["dtype"] == "<i2"
        assert table["kernel.mem.flags"]["dtype"] == "|u1"
        payload = store.load_latest().payload
        live = int((payload["kernel.mem.handle_slot"] != -1).sum())
        rows = len(payload["handles.pfn"])
        assert live > 5000 and rows < live / 4, (rows, live)
        slots = payload["kernel.handles.slots"]
        built = len(payload["kernel.handles.built.slots"])
        reclaimed = int((slots < 0).sum())
        assert reclaimed > 400 and reclaimed > 10 * built, (reclaimed, built)
        # Every holder's rows index the one table.
        for name, value in payload.items():
            if name.endswith("rows") and len(value):
                assert 0 <= value.min() and value.max() < rows, name

    def test_int64_arrays_are_narrowed_and_read_back_equal(self, tmp_path):
        import numpy as np

        from repro.checkpoint.format import Sections

        arrays = {"small": np.array([-1, 0, 32767]),
                  "medium": np.array([-1, 70_000]),
                  "large": np.array([1 << 40]), "empty": np.array([], int),
                  "bytes": np.array([1, 2], np.uint8)}
        path = tmp_path / "x.ckpt"
        path.write_bytes(_envelope("demo", 0, Sections(arrays)))
        back = read_checkpoint(path).payload
        assert {name: value.dtype.str for name, value in back.items()} == {
            "small": "<i2", "medium": "<i4", "large": "<i8",
            "empty": "<i2", "bytes": "|u1"}
        for name, value in arrays.items():
            assert back[name].tolist() == value.tolist()


def _forged(header, body: bytes = b"", raw: bytes | None = None) -> bytes:
    """An envelope holding *header* (any JSON value; or its *raw* bytes)
    and *body*, its header checksummed as a writer would: what a buggy
    producer could write, past the digests."""
    import hashlib

    if raw is None:
        raw = json.dumps(header).encode("utf-8")
    return b"".join((MAGIC, FORMAT_VERSION.to_bytes(4, "big"),
                     len(raw).to_bytes(4, "big"),
                     hashlib.sha256(raw).digest(), raw, body))


def _parts(data: bytes) -> tuple[dict, bytes]:
    """(header, sections' bytes) of a well-formed envelope."""
    end = 44 + int.from_bytes(data[8:12], "big")
    return json.loads(data[44:end]), data[end:]


def _array_file() -> bytes:
    import numpy as np

    from repro.checkpoint.format import Sections

    return _envelope("demo", 3, Sections(
        {"a": np.arange(4, dtype=np.int16), "b": {"k": [1, 2]}}))


def _set(path):
    """Set the header field at *path* (keys and list indices)."""
    def mutate(header, value):
        *parents, last = path
        for key in parents:
            header = header[key]
        header[last] = value
    return mutate


def _drop(path):
    def mutate(header, _value):
        *parents, last = path
        for key in parents:
            header = header[key]
        del header[last]
    return mutate


#: id -> (mutation, value): one malformed header or table field each.
MALFORMED = {
    "step-is-a-string": (_set(["step"]), "abc"),
    "step-is-a-bool": (_set(["step"]), True),
    "step-is-a-float": (_set(["step"]), 2.5),
    "step-is-negative": (_set(["step"]), -1),
    "kind-is-an-int": (_set(["kind"]), 7),
    "meta-is-a-list": (_set(["meta"]), ["identity"]),
    "meta-is-an-int": (_set(["meta"]), 3),
    "header-missing-step": (_drop(["step"]), None),
    "sections-is-a-dict": (_set(["sections"]), {}),
    "entry-is-a-list": (_set(["sections", 0]), ["a", "array"]),
    "entry-missing-sha256": (_drop(["sections", 0, "sha256"]), None),
    "entry-extra-key": (_set(["sections", 0, "offset"]), 0),
    "name-is-an-int": (_set(["sections", 0, "name"]), 0),
    "duplicate-names": (_set(["sections", 1, "name"]), "a"),
    "type-unknown": (_set(["sections", 0, "type"]), "marshal"),
    "len-is-a-string": (_set(["sections", 0, "len"]), "8"),
    "len-is-negative": (_set(["sections", 0, "len"]), -8),
    "len-past-the-file": (_set(["sections", 0, "len"]), 1 << 40),
    "sha256-is-an-int": (_set(["sections", 0, "sha256"]), 12),
    "sha256-is-short": (_set(["sections", 0, "sha256"]), "ab" * 8),
    "sha256-is-not-hex": (_set(["sections", 0, "sha256"]), "z" * 64),
    "dtype-not-allowed": (_set(["sections", 0, "dtype"]), "|O"),
    "shape-is-an-int": (_set(["sections", 0, "shape"]), 4),
    "shape-is-negative": (_set(["sections", 0, "shape"]), [-4]),
    "shape-disagrees-with-len": (_set(["sections", 0, "shape"]), [5]),
    "json-section-with-dtype": (_set(["sections", 1, "dtype"]), "<i2"),
    "pickle-beside-another": (_set(["sections", 1, "type"]), "pickle"),
}


class TestTypedHeader:
    """Every header and table field is type-checked before use: a
    checksum-valid file with a malformed field is typed corruption —
    ``read_checkpoint`` raises ``CheckpointCorruptError``,
    ``inspect_checkpoint`` says ``corrupt`` and ``load_latest`` falls
    back to ``.prev`` — never a bare ``ValueError``/``TypeError``."""

    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_malformed_field_is_typed_corruption(self, field, tmp_path):
        header, body = _parts(_array_file())
        mutate, value = MALFORMED[field]
        mutate(header, value)
        path = tmp_path / "x.ckpt"
        path.write_bytes(_forged(header, body))
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(path)
        assert inspect_checkpoint(path)["status"] == "corrupt"

    def test_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(_forged(["kind", "step"]))
        with pytest.raises(CheckpointCorruptError, match="not an object"):
            read_checkpoint(path)

    def test_a_flipped_header_byte_breaks_its_checksum(self, tmp_path):
        data = bytearray(_array_file())
        data[50] ^= 0x01
        path = tmp_path / "x.ckpt"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="header checksum"):
            read_checkpoint(path)

    def test_malformed_current_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})    # step 1 becomes .prev
        header, body = _parts(_envelope("demo", 2, {"step": 2}))
        header["step"] = "abc"
        with open(store.current_path, "wb") as fh:
            fh.write(_forged(header, body))
        ckpt = store.load_latest()
        assert ckpt.step == 1 and ckpt.payload == {"step": 1}
        assert [g["status"] for g in store.inspect()["generations"]] == [
            "corrupt", "ok"]


def _fuzz_file() -> bytes:
    """A real 16 MiB ``workload`` checkpoint (built once)."""
    if not _FUZZ:
        import tempfile

        from repro.workloads import WorkloadConfig, run_workload

        with tempfile.TemporaryDirectory() as directory:
            run_workload(WorkloadConfig("web", "contiguitas", MiB(16),
                                        steps=6, seed=3),
                         checkpoint_every=6, checkpoint_dir=directory)
            with open(os.path.join(directory, "workload.ckpt"), "rb") as fh:
                _FUZZ.append(fh.read())
    return _FUZZ[0]


_FUZZ: list[bytes] = []

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


class TestEnvelopeFuzz:
    """Whatever happens to a real checkpoint's bytes, reading it is a
    typed ``CheckpointCorruptError`` or a clean load — never another
    exception — and allocates no more than about the file again."""

    @staticmethod
    def _read(data: bytes, tmp_path) -> None:
        import tracemalloc

        path = tmp_path / "fuzz.ckpt"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            read_checkpoint(path)
        except CheckpointCorruptError:
            pass
        finally:
            _now, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak <= 2 * len(data) + (1 << 16), (peak, len(data))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bit_flips(self, data, tmp_path_factory):
        blob = bytearray(_fuzz_file())
        # Distinct bytes, so no flip undoes another: every flip lands
        # under the header's or a section's digest.
        for at in data.draw(st.lists(st.integers(0, len(blob) - 1),
                                     min_size=1, max_size=4, unique=True)):
            blob[at] ^= 1 << data.draw(st.integers(0, 7))
        path = tmp_path_factory.mktemp("flip") / "x.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(path)

    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(0, 1 << 20))
    def test_truncations(self, cut, tmp_path_factory):
        blob = _fuzz_file()
        self._read(blob[:cut % len(blob)], tmp_path_factory.mktemp("cut"))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_section_table_mutations(self, data, tmp_path_factory):
        header, body = _parts(_fuzz_file())
        table = header["sections"]
        entry = table[data.draw(st.integers(0, len(table) - 1))]
        action = data.draw(st.sampled_from(["set", "drop", "swap"]))
        key = data.draw(st.sampled_from(sorted(entry)))
        if action == "set":
            entry[key] = data.draw(_JSON_VALUES)
        elif action == "drop":
            del entry[key]
        else:
            other = table[data.draw(st.integers(0, len(table) - 1))]
            entry[key], other[key] = other[key], entry[key]
        self._read(_forged(header, body), tmp_path_factory.mktemp("table"))

    @settings(max_examples=12, deadline=None)
    @given(depth=st.integers(1, 200_000), array=st.booleans())
    def test_a_deeply_nested_header(self, depth, array, tmp_path_factory):
        """A checksum-valid header nested past the JSON decoder's
        recursion limit is typed corruption, not a RecursionError."""
        raw = ("[" * depth + "]" * depth if array
               else '{"k":' * depth + "0" + "}" * depth)
        path = tmp_path_factory.mktemp("deep") / "x.ckpt"
        path.write_bytes(_forged(None, raw=raw.encode()))
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(path)
        assert inspect_checkpoint(path)["status"] == "corrupt"

    def test_a_deeply_nested_current_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        with open(store.current_path, "wb") as fh:
            fh.write(_forged(None, raw=b"[" * 100_000 + b"]" * 100_000))
        assert store.load_latest().payload == {"step": 1}
        assert [g["status"] for g in store.inspect()["generations"]] == [
            "corrupt", "ok"]

    def test_a_reshaped_section_is_refused_at_restore(self, tmp_path):
        """A table that passes the envelope but does not fit the kernel
        the config boots is typed corruption too."""
        from repro.workloads import WorkloadConfig, run_workload

        header, body = _parts(_fuzz_file())
        flags = next(e for e in header["sections"]
                     if e["name"] == "kernel.mem.flags")
        flags["shape"] = [64, flags["shape"][0] // 64]
        (tmp_path / "workload.ckpt").write_bytes(_forged(header, body))
        config = WorkloadConfig("web", "contiguitas", MiB(16), steps=6,
                                seed=3)
        with pytest.raises(CheckpointCorruptError, match="do not restore"):
            run_workload(config, checkpoint_every=6,
                         checkpoint_dir=str(tmp_path), resume=True)


    @pytest.mark.parametrize("entry", ["scalar", "slot"])
    def test_a_column_naming_a_free_pfn_is_refused_by_the_sweep(
            self, entry, tmp_path):
        """Re-checksummed so the envelope passes, a handle-registry
        column naming a PFN that heads no allocation — as a scalar
        entry, or filed under a live slot — is refused by the restore
        sweep, which names that PFN."""
        import hashlib

        import numpy as np

        from repro.errors import SanitizerError
        from repro.mm.handle import SCALAR
        from repro.workloads import WorkloadConfig, run_workload

        header, body = _parts(_fuzz_file())
        sections, offset = {}, 0
        for item in header["sections"]:
            sections[item["name"]] = (item, offset)
            offset += item["len"]
        body = bytearray(body)

        def array(name):
            item, at = sections[name]
            return np.frombuffer(body, dtype=item["dtype"],
                                 count=item["shape"][0], offset=at)

        column = array("kernel.mem.handle_slot").copy()
        pfn = int(np.flatnonzero(
            (array("kernel.mem.alloc_order") < 0) & (column == -1))[0])
        column[pfn] = SCALAR if entry == "scalar" else column.max()
        item, at = sections["kernel.mem.handle_slot"]
        body[at:at + item["len"]] = column.tobytes()
        item["sha256"] = hashlib.sha256(column.tobytes()).hexdigest()
        (tmp_path / "workload.ckpt").write_bytes(_forged(header, bytes(body)))
        config = WorkloadConfig("web", "contiguitas", MiB(16), steps=6,
                                seed=3)
        with pytest.raises(SanitizerError, match="handle registry") as err:
            run_workload(config, checkpoint_every=6,
                         checkpoint_dir=str(tmp_path), resume=True)
        assert err.value.pfn == pfn


class TestStore:
    def test_rotation_keeps_two_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        store.save("demo", 3, {"step": 3})
        assert read_checkpoint(store.current_path).step == 3
        assert read_checkpoint(store.previous_path).step == 2
        assert store.load_latest().payload == {"step": 3}

    def test_corrupt_current_falls_back_to_previous(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        data = bytearray(open(store.current_path, "rb").read())
        data[-3] ^= 0xFF
        open(store.current_path, "wb").write(bytes(data))
        ckpt = store.load_latest()
        assert ckpt.step == 1

    def test_version_skewed_current_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        data = bytearray(open(store.current_path, "rb").read())
        data[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "big")
        open(store.current_path, "wb").write(bytes(data))
        assert store.load_latest().step == 1

    def test_both_corrupt_raises_current_error(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        for path in (store.current_path, store.previous_path):
            data = bytearray(open(path, "rb").read())
            data[-3] ^= 0xFF
            open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointCorruptError) as err:
            store.load_latest()
        assert store.current_path in str(err.value)

    def test_empty_store_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path, "run").load_latest() is None

    def test_injected_write_fail_leaves_generations_intact(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        plan = FaultPlan("wf", (
            FaultSpec("checkpoint.write-fail", rate=1.0, max_fires=1),))
        with injecting(plan, seed=0):
            with pytest.raises(CheckpointWriteError):
                store.save("demo", 3, {"step": 3})
        # Both generations untouched, no temp litter.
        assert read_checkpoint(store.current_path).step == 2
        assert read_checkpoint(store.previous_path).step == 1
        assert [f for f in os.listdir(tmp_path)
                if f.startswith(".tmp-")] == []

    def test_save_sweeps_its_own_stale_staged_files(self, tmp_path,
                                                    monkeypatch):
        """A writer SIGKILLed mid-write leaves its staged file; the
        next save of that store removes it — and nothing else's."""
        store = CheckpointStore(tmp_path, "fleet")
        store.save("demo", 1, {"step": 1})
        store.save("demo", 2, {"step": 2})
        stale = tmp_path / ".tmp-fleet.k1ll3d_0.ckpt"
        others = [tmp_path / ".tmp-fleet-survey.k1ll3d_0.ckpt",
                  tmp_path / ".tmp-fleet.x.k1ll3d_0.ckpt",
                  tmp_path / ".tmp-fleet.k1ll3d_0.json"]
        for path in (stale, *others):
            path.write_bytes(b"half a checkpoint")
        # Readers never sweep: a run may be mid-save beside them.
        reader = CheckpointStore(tmp_path, "fleet")
        reader.inspect()
        assert reader.load_latest().step == 2
        assert stale.exists()

        staged = []
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: (
            staged.append(os.path.basename(src)), real_replace(src, dst)))
        store.save("demo", 3, {"step": 3})
        assert not stale.exists()
        assert all(path.exists() for path in others)
        assert read_checkpoint(store.current_path).step == 3
        assert read_checkpoint(store.previous_path).step == 2
        # What save stages is what the sweep looks for.
        assert re.fullmatch(r"\.tmp-fleet\.[^.]+\.ckpt", staged[-1])

    def test_inspect_describes_both_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, "run")
        store.save("demo", 1, {}, meta={"checkpoint_every": 5})
        report = store.inspect()
        assert report["name"] == "run"
        current, previous = report["generations"]
        assert current["status"] == "ok"
        assert current["meta"]["checkpoint_every"] == 5
        assert previous["status"] == "missing"


class TestWatchdog:
    def test_missing_then_ok_then_hung(self, tmp_path):
        path = tmp_path / "run.ckpt"
        now = [1000.0]
        dog = DeadlineWatchdog(path, deadline_s=60.0,
                               clock=lambda: now[0])
        assert dog.status() == "missing"
        assert dog.age_s() is None

        path.write_bytes(b"x")
        os.utime(path, (1000.0, 1000.0))
        assert dog.status() == "ok"

        now[0] = 1059.0
        assert dog.status() == "ok"
        now[0] = 1061.0
        assert dog.status() == "hung"
        assert dog.age_s() == pytest.approx(61.0)

    def test_describe_fields(self, tmp_path):
        dog = DeadlineWatchdog(tmp_path / "x.ckpt")
        desc = dog.describe()
        assert desc["status"] == "missing"
        assert desc["deadline_s"] == DEFAULT_DEADLINE_S


def _crash_plan(boundary: int) -> FaultPlan:
    """A plan whose sim.crash fires exactly at the Nth checkpoint
    boundary (1-based)."""
    return FaultPlan("kill", (
        FaultSpec("sim.crash", rate=1.0, max_fires=1,
                  skip=boundary - 1),))


class TestWorkloadCrashResume:
    STEPS = 12
    EVERY = 2

    def _config(self, seed):
        from repro.workloads.config import WorkloadConfig

        return WorkloadConfig(mem_bytes=MiB(16), steps=self.STEPS,
                              seed=seed)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31),
           boundary=st.integers(1, STEPS // EVERY))
    def test_kill_at_any_boundary_resumes_byte_identical(
            self, tmp_path_factory, seed, boundary):
        from repro.workloads import run_workload

        tmp = tmp_path_factory.mktemp("ck")
        config = self._config(seed)
        with injecting(_crash_plan(boundary), seed=0):
            with pytest.raises(SimCrashError):
                run_workload(config, checkpoint_every=self.EVERY,
                             checkpoint_dir=str(tmp))
        resumed = run_workload(config, checkpoint_every=self.EVERY,
                               checkpoint_dir=str(tmp), resume=True)
        reference = run_workload(config)
        assert (json.dumps(resumed.snapshot(), sort_keys=True)
                == json.dumps(reference.snapshot(), sort_keys=True))

    def test_resume_restores_from_exact_boundary(self, tmp_path):
        """The resumed run continues from the crash step, not from
        scratch: its store's first post-resume save is step 8."""
        from repro.workloads import run_workload

        config = self._config(5)
        with injecting(_crash_plan(3), seed=0):  # dies at step 6
            with pytest.raises(SimCrashError):
                run_workload(config, checkpoint_every=2,
                             checkpoint_dir=str(tmp_path))
        store = CheckpointStore(str(tmp_path), "workload")
        assert store.load_latest().step == 6
        run_workload(config, checkpoint_every=2,
                     checkpoint_dir=str(tmp_path), resume=True)
        assert store.load_latest().step == self.STEPS

    def test_checkpoint_payload_is_self_describing(self, tmp_path):
        from repro.workloads import run_workload

        config = self._config(5)
        run_workload(config, checkpoint_every=4,
                     checkpoint_dir=str(tmp_path))
        from repro.workloads import WorkloadConfig

        ckpt = CheckpointStore(str(tmp_path), "workload").load_latest()
        assert WorkloadConfig.from_state(ckpt.payload["config"]) == config
        assert ckpt.meta["checkpoint_every"] == 4


class TestCrashRestartPlan:
    def test_named_plan_registered_with_both_sites(self):
        plan = NAMED_PLANS["crash-restart"]
        sites = {spec.site for spec in plan.specs}
        assert sites == {"checkpoint.write-fail", "sim.crash"}


def _small_fleet(seed, n_servers=4):
    from repro.fleet import FleetConfig, ServerConfig

    return FleetConfig(
        n_servers=n_servers,
        server=ServerConfig(mem_bytes=MiB(32), min_uptime_steps=30,
                            max_uptime_steps=60),
        base_seed=seed, workers=1)


class TestFleetResume:
    def test_run_fleet_kill_and_resume_equal_scans(self, tmp_path):
        from repro.fleet import run_fleet

        config = _small_fleet(5)
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_fleet(config, checkpoint_every=1,
                          checkpoint_dir=str(tmp_path))
        resumed = run_fleet(config, checkpoint_every=1,
                            checkpoint_dir=str(tmp_path), resume=True)
        reference = run_fleet(config)
        assert resumed == reference

    def test_resume_skips_finished_servers(self, tmp_path):
        from repro.fleet import run_fleet

        config = _small_fleet(5)
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_fleet(config, checkpoint_every=1,
                          checkpoint_dir=str(tmp_path))
        ckpt = CheckpointStore(str(tmp_path), "fleet").load_latest()
        assert sorted(ckpt.payload["scans"]) == [0, 1]

    def test_resume_with_no_checkpoint_starts_fresh(self, tmp_path):
        from repro.fleet import run_fleet, survey_fleet

        config = _small_fleet(9, n_servers=2)
        fresh = run_fleet(config, checkpoint_every=1,
                          checkpoint_dir=str(tmp_path / "empty"),
                          resume=True)
        assert fresh == run_fleet(config)
        summary = survey_fleet(config, checkpoint_every=1,
                               checkpoint_dir=str(tmp_path / "survey"),
                               resume=True)
        assert (deterministic_view(summary.manifest)
                == deterministic_view(survey_fleet(config).manifest))


def _contract_cases():
    """kind -> (config, cadence, a config of a *different* run, a key
    that differs)."""
    from dataclasses import replace

    from repro.workloads import LoadgenConfig, WorkloadConfig

    workload = WorkloadConfig(service="web", mem_bytes=MiB(16), steps=12,
                              seed=1)
    loadgen = LoadgenConfig(rate_rps=150_000.0, duration_s=1e-3, seed=7)
    fleet = _small_fleet(3)
    return {
        "workload": (workload, 2,
                     replace(workload, service="cache-b", seed=2), "seed"),
        "loadgen": (loadgen, 25, replace(loadgen, design="none"), "design"),
        "fleet": (fleet, 1, replace(fleet, n_servers=6), "n_servers"),
        "fleet-survey": (fleet, 1, replace(fleet, base_seed=4),
                         "base_seed"),
    }


def _run_kind(kind, config, **checkpointing):
    """Call *kind*'s front door the way the registry names it."""
    import importlib

    from repro.run import KINDS

    module, _, function = KINDS[kind].door.partition(":")
    return getattr(importlib.import_module(module), function)(
        config, **checkpointing)


def _view(result) -> str:
    """What must be byte-identical across interrupted, uninterrupted and
    never-checkpointed runs: the manifest's deterministic view."""
    return json.dumps(deterministic_view(result.manifest), sort_keys=True)


def test_every_registered_run_kind_has_a_contract_case():
    """Adding a row to the kind registry means adding its case here."""
    from repro.run import KINDS

    assert sorted(KINDS) == sorted(_contract_cases())


@pytest.mark.parametrize("kind", sorted(_contract_cases()))
class TestRunSessionContract:
    """The run-session contract (docs/INTERNALS.md), once per
    registered run kind."""

    def test_crash_restart_resume_is_byte_identical(self, kind, tmp_path):
        """The crash-restart plan: boundary 1's write dies before any
        rename (tolerated and counted), boundary 2's lands and sim.crash
        kills the run; the resume == an uninterrupted checkpointed run
        == a run that never checkpointed."""
        from repro.checkpoint.format import metrics

        config, every, _, _ = _contract_cases()[kind]
        killed = str(tmp_path / "killed")
        failures = metrics.counters.snapshot().get(
            "checkpoint.write_failures", 0)
        with injecting(NAMED_PLANS["crash-restart"], seed=0):
            with pytest.raises(SimCrashError):
                _run_kind(kind, config, checkpoint_every=every,
                          checkpoint_dir=killed)
        assert metrics.counters.snapshot()[
            "checkpoint.write_failures"] == failures + 1
        assert CheckpointStore(killed, kind).load_latest().step == 2 * every
        resumed = _run_kind(kind, config, checkpoint_every=every,
                            checkpoint_dir=killed, resume=True)
        uninterrupted = _run_kind(kind, config, checkpoint_every=every,
                                  checkpoint_dir=str(tmp_path / "whole"))
        assert _view(resumed) == _view(uninterrupted) \
            == _view(_run_kind(kind, config))

    def test_another_runs_checkpoint_is_refused(self, kind, tmp_path):
        config, every, other, key = _contract_cases()[kind]
        _run_kind(kind, config, checkpoint_every=every,
                  checkpoint_dir=str(tmp_path))
        with pytest.raises(ConfigurationError,
                           match=f"different campaign.*{key}"):
            _run_kind(kind, other, checkpoint_every=every,
                      checkpoint_dir=str(tmp_path), resume=True)

    def test_checkpoint_bookkeeping_is_volatile_only(self, kind, tmp_path):
        config, every, _, _ = _contract_cases()[kind]
        checkpointed = _run_kind(kind, config, checkpoint_every=every,
                                 checkpoint_dir=str(tmp_path))
        plain = _run_kind(kind, config)
        assert "checkpoint" not in _view(checkpointed)
        assert _view(checkpointed) == _view(plain)
        volatile = checkpointed.manifest["volatile"]
        assert volatile["checkpoint_every"] == every
        assert volatile["checkpoint_dir"] == str(tmp_path)
        assert volatile["resumed"] is False
        assert not {"checkpoint_every", "checkpoint_dir", "resumed"} \
            & set(plain.manifest["volatile"])


class TestRestoreSanitizer:
    def test_restore_runs_invariant_sweep(self, tmp_path):
        """A checkpoint whose kernel state was corrupted in flight is
        rejected by the restore-time sanitizer, not silently resumed."""
        from repro.checkpoint import restore_kernel
        from repro.errors import SanitizerError
        from repro.mm import KernelConfig, LinuxKernel

        kernel = LinuxKernel(KernelConfig(mem_bytes=MiB(16)))
        kernel.alloc_pages(0)
        # Sabotage the free accounting the sweep cross-checks.
        kernel.buddy.nr_free += 7
        with pytest.raises(SanitizerError):
            restore_kernel(kernel)

    @staticmethod
    def _restored():
        """A churned kernel through snapshot/restore, with its order-0
        LIFO list's oldest two members (a free list of three or more)."""
        from repro.mm import KernelConfig, LinuxKernel, MigrateType

        kernel = LinuxKernel(KernelConfig(mem_bytes=MiB(16)))
        handles = [kernel.alloc_pages(0) for _ in range(64)]
        for handle in handles[::2]:
            kernel.free_pages(handle)
        kernel = restored(kernel)
        members = free_list(kernel.buddy, 0, MigrateType.MOVABLE)
        assert len(members) >= 3
        return kernel, members[:2]

    def test_a_corrupted_link_is_refused(self):
        from repro.checkpoint import restore_kernel
        from repro.errors import FreelistDivergenceError

        kernel, (first, second) = self._restored()
        kernel.mem.free_prev[second] = -1      # the chain says first
        with pytest.raises(FreelistDivergenceError, match="prev link"):
            restore_kernel(kernel)

    def test_a_corrupted_count_is_refused(self):
        from repro.checkpoint import restore_kernel
        from repro.errors import FreelistDivergenceError

        kernel, _ = self._restored()
        kernel.buddy._count[1] += 1            # list (order 0, MOVABLE)
        with pytest.raises(FreelistDivergenceError, match="count says"):
            restore_kernel(kernel)

    def test_a_corrupted_tag_is_refused(self):
        from repro.checkpoint import restore_kernel
        from repro.errors import FreelistDivergenceError

        kernel, (first, _) = self._restored()
        kernel.mem.free_list_id[first] += 1    # another list's id
        with pytest.raises(FreelistDivergenceError, match="tagged list"):
            restore_kernel(kernel)


class TestExperimentMidCellResume:
    OVERRIDES = {"n_servers": 4, "mem_mib": 32,
                 "min_uptime_steps": 30, "max_uptime_steps": 60}

    def _run(self, cache, *trace, name="fleet-survey", overrides=OVERRIDES,
             **kwargs):
        """One cell (default: the ``fleet-survey`` one); returns (result,
        names of the *trace* events it emitted, checkpoint paths it
        wrote)."""
        import repro.fleet  # noqa: F401  (tracing arms only what exists)
        from repro.experiments import run_experiment
        from repro.telemetry import tracing

        with tracing("checkpoint.write", *trace) as sink:
            result = run_experiment(name, overrides, workers=1,
                                    cache=cache, **kwargs)
        events = list(sink)
        return (result, [e.name for e in events],
                {e.fields["path"] for e in events
                 if e.name == "checkpoint.write"})

    def _kill(self, cache, **kwargs):
        from repro.experiments import run_experiment

        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_experiment("fleet-survey", self.OVERRIDES, workers=1,
                               cache=cache, checkpoint_every=1, **kwargs)

    def test_checkpoints_land_under_cache_key(self, tmp_path):
        from repro.experiments import ResultCache

        result, _, written = self._run(ResultCache(str(tmp_path)),
                                       checkpoint_every=1)
        ckdir = os.path.join(str(tmp_path), "checkpoints", result.key)
        # The fleet-survey producer fans out through run_fleet, whose
        # store is named "fleet".
        assert written == {os.path.join(ckdir, "fleet.ckpt")}
        # The rows landed, so the derived directory went.
        assert not os.path.exists(ckdir)
        # Rows identical to a checkpoint-free run of the same cell.
        plain, _, _ = self._run(ResultCache(str(tmp_path / "b")))
        assert result.rows == plain.rows

    def test_killed_cell_resumes_from_checkpoint(self, tmp_path):
        from repro.experiments import ResultCache

        cache = ResultCache(str(tmp_path))
        self._kill(cache)
        resumed, names, _ = self._run(cache, "checkpoint.restore",
                                      checkpoint_every=1)
        assert not resumed.cached
        assert names.count("checkpoint.restore") == 1
        plain, _, _ = self._run(ResultCache(str(tmp_path / "b")))
        assert resumed.rows == plain.rows

    def test_forced_rerun_simulates_every_server(self, tmp_path):
        """``force`` recomputes: neither a killed run's checkpoints nor
        a finished run's are resumed into the new rows."""
        from repro.experiments import ResultCache

        cache = ResultCache(str(tmp_path))
        self._kill(cache)
        for _ in range(2):  # over the killed run, then the finished one
            result, names, _ = self._run(
                cache, "checkpoint.restore", "fleet.server.done",
                force=True, checkpoint_every=1)
            assert names.count("checkpoint.restore") == 0
            assert names.count("fleet.server.done") == 4
            assert not os.path.exists(os.path.join(
                str(tmp_path), "checkpoints", result.key))

    def test_explicit_directory_is_resumed_and_kept(self, tmp_path):
        """``--resume-from DIR`` names somebody's directory: ``force``
        does not empty it and landing the rows does not remove it."""
        from repro.experiments import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        explicit = str(tmp_path / "mine")
        self._kill(cache, checkpoint_dir=explicit)
        _, names, _ = self._run(cache, "checkpoint.restore", force=True,
                                checkpoint_every=1, checkpoint_dir=explicit)
        assert names.count("checkpoint.restore") == 1
        assert os.path.isfile(os.path.join(explicit, "fleet.ckpt"))

    def test_fetched_dependency_checkpoints_under_its_own_key(
            self, tmp_path):
        """fig04 only fetches; the survey under it is the expensive
        part and takes the cadence."""
        from repro.experiments import ResultCache, load_cached

        cache = ResultCache(str(tmp_path))
        size = {"n_servers": 2, "mem_mib": 32}
        result, _, written = self._run(
            cache, name="fig04-contiguity-cdf", overrides=size,
            checkpoint_every=1)
        survey = load_cached("fleet-survey", size, seed=result.seed,
                             cache=cache)
        assert written == {os.path.join(
            str(tmp_path), "checkpoints", survey.key, "fleet.ckpt")}


class TestCheckpointCli:
    def _seed_store(self, tmp_path):
        from repro.workloads import run_workload

        config = TestWorkloadCrashResume()._config(5)
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                run_workload(config, checkpoint_every=2,
                             checkpoint_dir=str(tmp_path))
        return config

    def test_inspect_lists_generations_and_watchdog(
            self, tmp_path, capsys):
        from repro.cli import main

        self._seed_store(tmp_path)
        main(["checkpoint", "inspect", str(tmp_path)])
        out = capsys.readouterr().out
        assert "workload" in out
        assert "current" in out and "previous" in out
        assert "watchdog ok" in out

    def test_inspect_json_reports_status(self, tmp_path, capsys):
        from repro.cli import main

        self._seed_store(tmp_path)
        main(["checkpoint", "inspect", str(tmp_path), "--json"])
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["generations"][0]["status"] == "ok"
        assert reports[0]["watchdog"]["status"] == "ok"

    def test_inspect_lists_sections_without_decoding(self, tmp_path,
                                                    capsys):
        from repro.cli import main

        self._seed_store(tmp_path)
        main(["checkpoint", "inspect", str(tmp_path), "--json"])
        current = json.loads(capsys.readouterr().out)[0]["generations"][0]
        sections = {sec["name"]: sec for sec in current["sections"]}
        assert sections["kernel.mem.flags"] == {
            "name": "kernel.mem.flags", "type": "array", "dtype": "|u1",
            "shape": [4096], "bytes": 4096, "checksum": "ok"}
        assert sections["workload.state"]["type"] == "json"
        assert sections["workload.state"]["dtype"] is None
        assert {sec["checksum"] for sec in sections.values()} == {"ok"}
        main(["checkpoint", "inspect", str(tmp_path)])
        out = capsys.readouterr().out
        assert "workload current: sections" in out
        assert re.search(r"kernel\.mem\.flags +array +\|u1 +4096 +4096 +ok",
                         out)

    def test_inspect_names_the_damaged_section(self, tmp_path, capsys):
        from repro.cli import main

        self._seed_store(tmp_path)
        path = CheckpointStore(str(tmp_path), "workload").current_path
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF                      # inside the last section
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        main(["checkpoint", "inspect", str(tmp_path), "--json"])
        current = json.loads(capsys.readouterr().out)[0]["generations"][0]
        assert current["status"] == "corrupt"
        damaged = [sec["name"] for sec in current["sections"]
                   if sec["checksum"] != "ok"]
        assert damaged == [current["sections"][-1]["name"]]

    def test_inspect_missing_dir_exits(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no such checkpoint"):
            main(["checkpoint", "inspect", str(tmp_path / "nope")])

    def test_resume_reconstructs_run_from_payload(
            self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import run_workload

        config = self._seed_store(tmp_path)
        main(["checkpoint", "resume", str(tmp_path)])
        captured = capsys.readouterr()
        assert "resuming workload from step 4" in captured.err
        resumed = json.loads(captured.out)
        assert resumed == run_workload(config).snapshot()

    @pytest.mark.parametrize("kind", sorted(_contract_cases()))
    def test_resume_output_per_kind(self, kind, tmp_path, capsys):
        """``repro checkpoint resume`` needs no flags for any kind and
        prints the finished run's snapshot as JSON (indent 2, sorted
        keys)."""
        from repro.cli import main

        config, every, _, _ = _contract_cases()[kind]
        with injecting(_crash_plan(2), seed=0):
            with pytest.raises(SimCrashError):
                _run_kind(kind, config, checkpoint_every=every,
                          checkpoint_dir=str(tmp_path))
        main(["checkpoint", "resume", str(tmp_path)])
        captured = capsys.readouterr()
        assert captured.err == (
            f"# resuming {kind} from step {2 * every} "
            f"({tmp_path}/{kind}.ckpt)\n")
        ref = _run_kind(kind, config)
        assert captured.out == json.dumps(
            ref.snapshot(), indent=2, sort_keys=True) + "\n"

    def test_resume_empty_dir_exits(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no checkpoints"):
            main(["checkpoint", "resume", str(tmp_path)])

    @pytest.mark.parametrize("flags", [
        ["--checkpoint-every", "-3", "--resume-from", "ck"],
    ], ids=["negative"])
    def test_unusable_cadence_is_refused(self, flags, tmp_path, monkeypatch,
                                         capsys):
        """A cadence that would save at the wrong steps stops the run
        before it starts, by flag name, instead of exiting 0."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "run", "fleet-survey", "--set", "n_servers=4",
                  "--set", "mem_mib=32", "--workers", "1",
                  "--cache-dir", "cache", *flags])
        assert exc.value.code == 2
        assert ("argument --checkpoint-every: checkpoint cadence must be "
                ">= 0, got -3") in capsys.readouterr().err
        assert not os.listdir(tmp_path)


class TestManifestVolatileOnly:
    def test_checkpoint_keys_never_touch_deterministic_view(self):
        from repro.fleet import survey_fleet
        import tempfile

        config = _small_fleet(13, n_servers=2)
        with tempfile.TemporaryDirectory() as tmp:
            ck = survey_fleet(config, checkpoint_every=1,
                              checkpoint_dir=tmp)
        plain = survey_fleet(config)
        assert ck.manifest["volatile"]["checkpoint_every"] == 1
        assert "checkpoint_every" not in plain.manifest["volatile"]
        assert (deterministic_view(ck.manifest)
                == deterministic_view(plain.manifest))
