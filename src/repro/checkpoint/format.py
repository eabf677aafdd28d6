"""Versioned, checksummed, atomically-rotated checkpoint files.

The on-disk envelope (``RPCK``) is deliberately dumb so every failure
mode maps to one typed error:

.. code-block:: text

    offset  size  field
    0       4     magic  b"RPCK"
    4       4     format version, big-endian uint32
    8       4     header length H, big-endian uint32
    12      32    SHA-256 of the header
    44      H     header, UTF-8 JSON: {"kind", "step", "meta", "sections"}
    44+H    ...   the sections' bytes, back to back in table order

``sections`` is the section table: one ``{"name", "type", "dtype",
"shape", "len", "sha256"}`` entry per section.  A section is

* ``array`` — a numpy array's raw little-endian buffer (``dtype`` from
  :data:`DTYPES`, ``shape`` a list of dimensions);
* ``json`` — one UTF-8 JSON document.

A payload is a dict of sections, written as data: every array value is
an ``array`` section, every other value a ``json`` section, and an
int64 or int32 array is narrowed to the smallest of int16/int32 that
holds its range (readers widen).  The reader returns what the writer
was given: a dict of read-only arrays (views of the file's bytes) and
decoded JSON.

A bit flip anywhere breaks the header's or a section's SHA-256; a
truncated file breaks the recorded lengths before any digest is even
computed; every header and table field is type-checked before it is
used, so a checksum-valid file with a malformed field is refused too;
an unknown format version is :class:`CheckpointVersionError` (a
:class:`CheckpointCorruptError` subclass, so generic corruption handling
catches it too).  ``repro checkpoint inspect`` describes a file from
its header and digests alone — never decoding a section, and therefore
without importing numpy.

:class:`CheckpointStore` keeps two generations per name and rotates
them with ``os.replace`` only — the write path never leaves a window
where zero valid checkpoints exist: the new envelope is staged to a
temp file and fsynced first, then ``current`` becomes ``.prev``, then
the temp file becomes ``current``.  A crash (or the injected
``checkpoint.write-fail`` site, which fires before the first rename)
leaves both previous generations intact.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any

from ..errors import (
    CheckpointCorruptError,
    CheckpointVersionError,
    CheckpointWriteError,
)
from ..faults import fault_site
from ..telemetry import MetricsRegistry, tracepoint

MAGIC = b"RPCK"
#: Bumped whenever the envelope *or* what the front doors put in it
#: changes shape, so an old file fails as CheckpointVersionError rather
#: than mid-resume.  Versions 1-9 held one pickled payload (the workload
#: kind's a pickled kernel and driver, whose every class move froze a
#: new layout into the file).  10: the envelope is a checksummed header
#: and a section table, and the workload kind writes typed array and
#: JSON sections (``snapshot()``/``restore()`` of each layer) instead.
#: 11: the handle registry's PFN map is a frame column and its slot
#: table one int64 array.  12: ``WorkloadConfig`` lost ``loadgen`` and
#: the pickled ``FleetConfig``/fleet aggregator lost their supervision
#: and tail-latency fields.  13: no payload embeds its config, the
#: ``loadgen`` and ``fleet-survey`` kinds are gone, and the ``fleet``
#: kind writes its aggregator and scans as JSON: no ``pickle`` section.
#: 14: every allocation has a registry slot, and the slot table, one
#: info byte per slot and the frame columns are the handle data: the
#: ``handles`` table section is gone, every holder writes slots, the
#: calendar's slab refs are object keys, and five frame columns are
#: int32.
FORMAT_VERSION = 14

#: magic + version + header length + header SHA-256.
_PREFIX_LEN = 44

#: Array dtypes a section may declare, with their item sizes.
DTYPES = {"|b1": 1, "|i1": 1, "|u1": 1, "<i2": 2, "<i4": 4, "<i8": 8,
          "<f8": 8}

_TYPES = ("array", "json")
_ENTRY_KEYS = {"name", "type", "dtype", "shape", "len", "sha256"}
_HEX = frozenset("0123456789abcdef")

metrics = MetricsRegistry()

_tp_write = tracepoint("checkpoint.write")
_tp_restore = tracepoint("checkpoint.restore")

_fs_write_fail = fault_site("checkpoint.write-fail")


@dataclass(frozen=True)
class Checkpoint:
    """One decoded checkpoint: the envelope header plus the payload."""

    kind: str
    step: int
    payload: dict
    meta: dict = field(default_factory=dict)
    path: str = ""


def collector_paused(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the cyclic collector off: a payload
    (snapshot into sections, or restored from them) is thousands of
    live containers and no garbage, so every collection its
    allocations trigger is a wasted full-heap walk.  The collector
    is left as it was found on every exit path."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args, **kwargs)
    finally:
        if was_enabled:
            gc.enable()


#: What an int64 or int32 array may be narrowed to, narrowest first,
#: with each type's bounds.
_NARROW = (("<i2", -1 << 15, (1 << 15) - 1), ("<i4", -1 << 31, (1 << 31) - 1))


def _narrowed(array):
    """*array* itself, or — an int64 or int32 array whose range fits —
    a copy in the narrowest of int16/int32."""
    wide = array.dtype.str
    if wide != "<i8" and wide != "<i4":
        return array
    if not array.size:
        return array.astype("<i2")
    lo, hi = int(array.min()), int(array.max())
    for narrow, least, most in _NARROW:
        if least <= lo and hi <= most:
            return array.astype(narrow) if narrow != wide else array
    return array


def _section(name: str, value) -> tuple[dict, Any]:
    """One table entry without its digest, and the bytes-like body."""
    # numpy is imported only when an array is written (or read), so
    # the metadata verbs that describe a file never load it.
    if type(value).__module__ == "numpy":
        import numpy as np

        if not isinstance(value, np.ndarray):
            raise TypeError(f"section {name!r}: {type(value).__name__} "
                            f"is neither an array nor JSON-safe")
        array = np.ascontiguousarray(_narrowed(value))
        if array.dtype.str not in DTYPES:
            raise TypeError(f"section {name!r}: dtype {array.dtype.str} "
                            f"is not one of {sorted(DTYPES)}")
        return ({"name": name, "type": "array", "dtype": array.dtype.str,
                 "shape": list(array.shape)},
                memoryview(array).cast("B"))
    return ({"name": name, "type": "json", "dtype": None, "shape": None},
            json.dumps(value, separators=(",", ":"),
                       allow_nan=False).encode("utf-8"))


def encode_checkpoint(kind: str, step: int, payload: dict,
                      meta: dict | None = None) -> list:
    """Serialise one envelope (no I/O) as the bytes-like chunks a
    writer writes in order: the prefix and header, then every section
    body as it is — an array straight from its buffer, never copied
    into one blob."""
    parts = [_section(name, value) for name, value in payload.items()]
    table = []
    for entry, body in parts:
        entry["len"] = len(body)
        entry["sha256"] = hashlib.sha256(body).hexdigest()
        table.append(entry)
    header = json.dumps({"kind": kind, "step": int(step),
                         "meta": meta or {}, "sections": table},
                        sort_keys=True).encode("utf-8")
    return [MAGIC, FORMAT_VERSION.to_bytes(4, "big"),
            len(header).to_bytes(4, "big"), hashlib.sha256(header).digest(),
            header, *(body for _entry, body in parts)]


def _is_int(value) -> bool:
    return type(value) is int


def _check_entry(entry, size: int, path: str) -> None:
    """Type-check one section-table entry; *size* bounds its length."""
    if type(entry) is not dict or set(entry) != _ENTRY_KEYS:
        raise CheckpointCorruptError(
            f"{path}: section entry {entry!r:.80} must have exactly the "
            f"keys {sorted(_ENTRY_KEYS)}")
    name = entry["name"]
    if type(name) is not str:
        raise CheckpointCorruptError(f"{path}: section name {name!r:.40} "
                                     f"is not a string")
    kind, dtype, shape, length = (entry["type"], entry["dtype"],
                                  entry["shape"], entry["len"])
    digest = entry["sha256"]
    where = f"{path}: section {name!r}"
    if type(kind) is not str or kind not in _TYPES:
        raise CheckpointCorruptError(f"{where}: unknown type {kind!r:.40}")
    if not _is_int(length) or not 0 <= length <= size:
        raise CheckpointCorruptError(
            f"{where}: length {length!r:.40} is not an int in [0, {size}]")
    if (type(digest) is not str or len(digest) != 64
            or not _HEX.issuperset(digest)):
        raise CheckpointCorruptError(
            f"{where}: sha256 {digest!r:.80} is not 64 hex digits")
    if kind != "array":
        if dtype is not None or shape is not None:
            raise CheckpointCorruptError(
                f"{where}: a {kind} section has no dtype or shape")
        return
    if type(dtype) is not str or dtype not in DTYPES:
        raise CheckpointCorruptError(
            f"{where}: dtype {dtype!r:.40} is not one of {sorted(DTYPES)}")
    if (type(shape) is not list
            or not all(_is_int(n) and 0 <= n <= size for n in shape)):
        raise CheckpointCorruptError(
            f"{where}: shape {shape!r:.80} is not a list of dimensions")
    items = 1
    for n in shape:
        items *= n
    if items * DTYPES[dtype] != length:
        raise CheckpointCorruptError(
            f"{where}: shape {shape} of {dtype} is "
            f"{items * DTYPES[dtype]} bytes, length says {length}")


def _parse_header(data: bytes, path: str) -> tuple[dict, int]:
    """Validate the prefix, the header and its section table; return
    (header dict, offset of the first section).

    Everything before the section digests (:func:`_sections`) lives
    here so :func:`inspect_checkpoint` can describe a file whose
    sections are damaged.
    """
    if len(data) < _PREFIX_LEN:
        raise CheckpointCorruptError(
            f"{path}: truncated envelope ({len(data)} bytes, "
            f"need >= {_PREFIX_LEN})")
    if data[:4] != MAGIC:
        raise CheckpointCorruptError(
            f"{path}: bad magic {data[:4]!r} (want {MAGIC!r})")
    version = int.from_bytes(data[4:8], "big")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version} (this build reads "
            f"{FORMAT_VERSION})")
    end = _PREFIX_LEN + int.from_bytes(data[8:12], "big")
    if len(data) < end:
        raise CheckpointCorruptError(
            f"{path}: truncated header ({len(data)} bytes, "
            f"header ends at {end})")
    raw = data[_PREFIX_LEN:end]
    if hashlib.sha256(raw).digest() != data[12:_PREFIX_LEN]:
        raise CheckpointCorruptError(f"{path}: header checksum mismatch")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointCorruptError(f"{path}: unparseable header: {exc}")
    if type(header) is not dict:
        raise CheckpointCorruptError(f"{path}: header is not an object")
    for key in ("kind", "step", "meta", "sections"):
        if key not in header:
            raise CheckpointCorruptError(f"{path}: header missing {key!r}")
    if type(header["kind"]) is not str:
        raise CheckpointCorruptError(
            f"{path}: kind {header['kind']!r:.40} is not a string")
    if not _is_int(header["step"]) or header["step"] < 0:
        raise CheckpointCorruptError(
            f"{path}: step {header['step']!r:.40} is not an int >= 0")
    if type(header["meta"]) is not dict:
        raise CheckpointCorruptError(
            f"{path}: meta {header['meta']!r:.40} is not an object")
    table = header["sections"]
    if type(table) is not list:
        raise CheckpointCorruptError(
            f"{path}: section table {table!r:.40} is not a list")
    for entry in table:
        _check_entry(entry, len(data), path)
    names = [entry["name"] for entry in table]
    if len(set(names)) != len(names):
        raise CheckpointCorruptError(f"{path}: duplicate section names")
    return header, end


def _sections(data: bytes, header: dict,
              offset: int) -> list[tuple[dict, memoryview, str]]:
    """``(entry, view of data, checksum status)`` per section, in table
    order — ``"ok"``, ``"mismatch"`` or, for a view the file ends
    inside, ``"truncated"`` — each digest computed once."""
    view, out = memoryview(data), []
    for entry in header["sections"]:
        body = view[offset:offset + entry["len"]]
        offset += entry["len"]
        out.append((entry, body, "truncated" if len(body) < entry["len"]
                    else "ok" if hashlib.sha256(body).hexdigest()
                    == entry["sha256"] else "mismatch"))
    return out


def _check(data: bytes, header: dict, offset: int, sections: list,
           path: str) -> None:
    """Refuse a file whose sections do not end where it ends, or any
    section whose digest does not match."""
    total = offset + sum(entry["len"] for entry in header["sections"])
    if total != len(data):
        raise CheckpointCorruptError(
            f"{path}: sections end at {total}, file is {len(data)} bytes")
    for entry, _body, status in sections:
        if status != "ok":
            raise CheckpointCorruptError(
                f"{path}: section {entry['name']!r} checksum {status}")


def _decode(entry: dict, body: memoryview, path: str):
    try:
        if entry["type"] == "array":
            import numpy as np

            return np.frombuffer(body, dtype=entry["dtype"]).reshape(
                entry["shape"])
        return json.loads(body.tobytes().decode("utf-8"))
    except Exception as exc:
        step = {"array": "array view", "json": "JSON parse"}[entry["type"]]
        raise CheckpointCorruptError(
            f"{path}: section {entry['name']!r}: {step} failed: {exc}")


def read_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Read and fully validate one checkpoint file.

    Raises:
        FileNotFoundError: no file at *path*.
        CheckpointVersionError: envelope version skew.
        CheckpointCorruptError: bad magic, truncation, a malformed
            header or table field, a checksum, or a section that does
            not decode.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    header, offset = _parse_header(data, path)
    sections = _sections(data, header, offset)
    _check(data, header, offset, sections, path)
    payload = {entry["name"]: _decode(entry, body, path)
               for entry, body, _status in sections}
    return Checkpoint(kind=header["kind"], step=header["step"],
                      payload=payload, meta=header["meta"], path=path)


def inspect_checkpoint(path: str | os.PathLike) -> dict:
    """Header-level description of one file, never decoding a section.

    Returns a dict with ``status`` ``"ok"`` (the header parses and every
    section digest matches), ``"corrupt"``, ``"version-skew"`` or
    ``"missing"``; validation detail rides in ``error``.  Once the
    header parses, ``sections`` lists each section's name, type, dtype,
    shape, bytes and ``checksum`` (``"ok"``, ``"mismatch"`` or
    ``"truncated"``).
    """
    path = str(path)
    info: dict = {"path": path}
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        info["status"] = "missing"
        return info
    info.update(size=len(data), mtime=os.stat(path).st_mtime)
    try:
        header, offset = _parse_header(data, path)
        sections = _sections(data, header, offset)
        info.update(kind=header["kind"], step=header["step"],
                    meta=header["meta"], sections=[
                        {"name": entry["name"], "type": entry["type"],
                         "dtype": entry["dtype"], "shape": entry["shape"],
                         "bytes": entry["len"], "checksum": status}
                        for entry, _body, status in sections])
        _check(data, header, offset, sections, path)
    except CheckpointVersionError as exc:
        info.update(status="version-skew", error=str(exc))
    except CheckpointCorruptError as exc:
        info.update(status="corrupt", error=str(exc))
    else:
        info["status"] = "ok"
    return info


class CheckpointStore:
    """Two-generation rotating checkpoint writer/reader for one run.

    Files live at ``<directory>/<name>.ckpt`` (current) and
    ``<directory>/<name>.ckpt.prev`` (previous good).  ``save`` rotates
    with ``os.replace`` so a crash at any instruction boundary leaves at
    least one fully-valid generation on disk; ``load_latest`` prefers
    current and falls back to previous when current fails validation.
    """

    SUFFIX = ".ckpt"
    PREV_SUFFIX = ".ckpt.prev"

    def __init__(self, directory: str | os.PathLike,
                 name: str = "run") -> None:
        self.directory = str(directory)
        self.name = name
        os.makedirs(self.directory, exist_ok=True)

    @property
    def current_path(self) -> str:
        return os.path.join(self.directory, self.name + self.SUFFIX)

    @property
    def previous_path(self) -> str:
        return os.path.join(self.directory, self.name + self.PREV_SUFFIX)

    def save(self, kind: str, step: int, payload: dict,
             meta: dict | None = None) -> str:
        """Write one checkpoint generation atomically; returns its path.

        Raises:
            CheckpointWriteError: the staged write failed (or the
                ``checkpoint.write-fail`` site fired) before any rename;
                both existing generations are untouched.
        """
        chunks = encode_checkpoint(kind, step, payload, meta)
        # A writer SIGKILLed mid-write never reached the ``except``
        # below, so the next save — the writer, never a reader, which
        # other processes run mid-save — sweeps what it left.  Staged
        # files are ``.tmp-<name>.<random>.ckpt`` and mkstemp's random
        # part holds no ".", so store ``fleet`` cannot match a staged
        # file of a store ``fleet.x``.
        prefix = f".tmp-{self.name}."
        for entry in os.listdir(self.directory):
            if (entry.startswith(prefix) and entry.endswith(self.SUFFIX)
                    and "." not in entry[len(prefix):-len(self.SUFFIX)]):
                os.unlink(os.path.join(self.directory, entry))
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=prefix,
                                   suffix=self.SUFFIX)
        size = sum(map(len, chunks))
        try:
            try:    # the whole envelope in one system call
                written = os.writev(fd, chunks)
                os.fsync(fd)
            finally:
                os.close(fd)
            if written != size:
                raise OSError(f"{tmp}: wrote {written} of {size} bytes")
            if _fs_write_fail.armed and _fs_write_fail.fire(
                    kind=kind, step=step):
                raise CheckpointWriteError(
                    f"{self.current_path}: injected checkpoint.write-fail "
                    f"at step {step}")
            if os.path.exists(self.current_path):
                os.replace(self.current_path, self.previous_path)
            os.replace(tmp, self.current_path)
        except BaseException:
            metrics.inc("checkpoint.write_failures")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        metrics.inc("checkpoint.writes")
        if _tp_write.enabled:
            _tp_write.emit(kind=kind, step=step, bytes=size,
                           path=self.current_path)
        return self.current_path

    def load_latest(self) -> Checkpoint | None:
        """The newest fully-valid checkpoint, or None when none exists.

        A corrupt (or version-skewed) current generation falls back to
        the previous one, counting ``checkpoint.fallbacks``.  When both
        generations fail validation the *current* generation's error
        propagates — silent resumption from garbage is worse than a
        loud failure.
        """
        primary_error: CheckpointCorruptError | None = None
        for path in (self.current_path, self.previous_path):
            try:
                ckpt = read_checkpoint(path)
            except FileNotFoundError:
                continue
            except CheckpointCorruptError as exc:
                if primary_error is None:
                    primary_error = exc
                continue
            if primary_error is not None:
                metrics.inc("checkpoint.fallbacks")
            metrics.inc("checkpoint.restores")
            if _tp_restore.enabled:
                _tp_restore.emit(kind=ckpt.kind, step=ckpt.step,
                                 path=ckpt.path)
            return ckpt
        if primary_error is not None:
            raise primary_error
        return None

    def inspect(self) -> dict:
        """Header-level description of both generations (no decode)."""
        return {
            "directory": self.directory,
            "name": self.name,
            "generations": [inspect_checkpoint(self.current_path),
                            inspect_checkpoint(self.previous_path)],
        }
