"""Versioned, checksummed, atomically-rotated checkpoint files.

The on-disk envelope (``RPCK``) is deliberately dumb so every failure
mode maps to one typed error:

.. code-block:: text

    offset  size  field
    0       4     magic  b"RPCK"
    4       4     format version, big-endian uint32
    8       4     header length, big-endian uint32
    12      H     header, UTF-8 JSON: {"kind", "step", "meta",
                  "payload_sha256", "payload_len"}
    12+H    N     payload, pickle protocol >= 4

A bit flip anywhere in the payload breaks the SHA-256 digest; a
truncated file breaks the recorded length before the digest is even
computed; an unknown format version is :class:`CheckpointVersionError`
(a :class:`CheckpointCorruptError` subclass, so generic corruption
handling catches it too).  The header is plain JSON so
``repro checkpoint inspect`` can describe a file without unpickling —
and therefore without importing or trusting the payload.

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
import pickle
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
#: than as a pickle AttributeError or a KeyError mid-resume.  2: the run
#: session (repro.run) records ``meta["identity"]`` and fleet payloads
#: carry the streaming aggregator for both fleet kinds.  3: ``Histogram``
#: buckets are a ``list[int]`` — a version-2 loadgen payload would put a
#: numpy array under ``LatencyRecorder`` and break ``json.dumps``.  4: the
#: workload driver's expiry heap holds plain tuples and
#: ``NetworkBufferPool.transient`` is a dict — a version-3 payload would
#: restore ``_Expiry`` objects (a class that is gone) and a list.  5: a
#: ``PageHandle`` pickles as a call to ``repro.mm.handle._restore_handle``
#: on a six-field record — a build that reads version 4 has no such
#: function, and this build must not pretend it wrote the slot-state form.
#: 6: the handle registry files a bulk page under a slot number and the
#: LRU and ``cache_pages`` hold slots — a version-5 payload holds an eager
#: registry (no slot table to resolve through) and a ``PhysicalMemory``
#: attribute (its set of allocation heads) that no longer exists.  7: a
#: slot reclaim freed before anybody named it holds the freed marker
#: ``~pfn`` — a version-6 build would read the negative int as the PFN
#: of a live page.  8: the free lists are link columns of
#: ``PhysicalMemory`` and a table in ``BuddyAllocator`` — a version-7
#: payload pickles ``FreeList``/``FreelistStore`` objects of a module
#: that no longer exists.  9: the workload driver's expiry heap and its
#: ``_seq`` counter became a calendar (a ``defaultdict`` of due step to
#: ``(kind, payload)`` lists) and a slab ``ObjectRef`` a slotted class
#: with a ``freed`` flag — a version-8 payload holds a heap this build
#: would read as a calendar.
FORMAT_VERSION = 9

#: magic + version + header length: the minimum parseable file.
_PREFIX_LEN = 12

metrics = MetricsRegistry()

_tp_write = tracepoint("checkpoint.write")
_tp_restore = tracepoint("checkpoint.restore")

_fs_write_fail = fault_site("checkpoint.write-fail")


@dataclass(frozen=True)
class Checkpoint:
    """One decoded checkpoint: the envelope header plus the live payload."""

    kind: str
    step: int
    payload: Any
    meta: dict = field(default_factory=dict)
    path: str = ""


def _collector_paused(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the cyclic collector off: a payload
    is tens of thousands of live containers and no garbage, so every
    collection pickle's allocations trigger is a wasted full-heap walk.
    The collector is left as it was found on every exit path."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args, **kwargs)
    finally:
        if was_enabled:
            gc.enable()


def encode_checkpoint(kind: str, step: int, payload: Any,
                      meta: dict | None = None) -> bytes:
    """Serialise one envelope to bytes (no I/O)."""
    blob = _collector_paused(pickle.dumps, payload,
                             protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps({
        "kind": kind,
        "step": int(step),
        "meta": meta or {},
        "payload_sha256": hashlib.sha256(blob).hexdigest(),
        "payload_len": len(blob),
    }, sort_keys=True).encode("utf-8")
    return b"".join((MAGIC, FORMAT_VERSION.to_bytes(4, "big"),
                     len(header).to_bytes(4, "big"), header, blob))


def _parse_header(data: bytes, path: str) -> tuple[dict, int]:
    """Validate the envelope prefix; return (header dict, payload offset).

    Everything before the payload check (:func:`_checked_payload`)
    lives here so :func:`inspect_checkpoint` can describe a file whose
    payload is damaged.
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
    header_len = int.from_bytes(data[8:12], "big")
    end = _PREFIX_LEN + header_len
    if len(data) < end:
        raise CheckpointCorruptError(
            f"{path}: truncated header ({len(data)} bytes, "
            f"header ends at {end})")
    try:
        header = json.loads(data[_PREFIX_LEN:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"{path}: unparseable header: {exc}")
    for key in ("kind", "step", "payload_sha256", "payload_len"):
        if key not in header:
            raise CheckpointCorruptError(
                f"{path}: header missing {key!r}")
    return header, end


def _checked_payload(data: bytes, header: dict, offset: int,
                     path: str) -> memoryview:
    """The payload as a view of *data* (no copy), once its length and
    SHA-256 match what the header recorded."""
    blob = memoryview(data)[offset:]
    if len(blob) != header["payload_len"]:
        raise CheckpointCorruptError(
            f"{path}: payload length {len(blob)} != recorded "
            f"{header['payload_len']}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointCorruptError(
            f"{path}: payload checksum mismatch ({digest[:12]}... != "
            f"recorded {header['payload_sha256'][:12]}...)")
    return blob


def read_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Read and fully validate one checkpoint file.

    Raises:
        FileNotFoundError: no file at *path*.
        CheckpointVersionError: envelope version skew.
        CheckpointCorruptError: bad magic, truncation, checksum or
            pickle failure.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    header, offset = _parse_header(data, path)
    blob = _checked_payload(data, header, offset, path)
    try:
        payload = _collector_paused(pickle.loads, blob)
    except Exception as exc:
        raise CheckpointCorruptError(f"{path}: payload unpickle failed: {exc}")
    return Checkpoint(kind=header["kind"], step=int(header["step"]),
                      payload=payload, meta=dict(header.get("meta", {})),
                      path=path)


def inspect_checkpoint(path: str | os.PathLike) -> dict:
    """Header-level description of one file, never unpickling.

    Returns a dict with ``status`` ``"ok"`` (header parses and the
    payload digest matches), ``"corrupt"``, ``"version-skew"`` or
    ``"missing"``; validation detail rides in ``error``.
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
        info.update(kind=header["kind"], step=header["step"],
                    meta=header.get("meta", {}))
        _checked_payload(data, header, offset, path)
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

    def save(self, kind: str, step: int, payload: Any,
             meta: dict | None = None) -> str:
        """Write one checkpoint generation atomically; returns its path.

        Raises:
            CheckpointWriteError: the staged write failed (or the
                ``checkpoint.write-fail`` site fired) before any rename;
                both existing generations are untouched.
        """
        data = encode_checkpoint(kind, step, payload, meta=meta)
        # A writer SIGKILLed mid-write never reached the ``except``
        # below, so the next save — the writer, never a reader, which
        # other processes run mid-save — sweeps what it left.  Staged
        # files are ``.tmp-<name>.<random>.ckpt`` and mkstemp's random
        # part holds no ".", so store ``fleet`` cannot match a staged
        # file of ``fleet-survey`` (or of a ``fleet.x``).
        prefix = f".tmp-{self.name}."
        for entry in os.listdir(self.directory):
            if (entry.startswith(prefix) and entry.endswith(self.SUFFIX)
                    and "." not in entry[len(prefix):-len(self.SUFFIX)]):
                os.unlink(os.path.join(self.directory, entry))
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=prefix,
                                   suffix=self.SUFFIX)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
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
            _tp_write.emit(kind=kind, step=step, bytes=len(data),
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
        """Header-level description of both generations (no unpickle)."""
        return {
            "directory": self.directory,
            "name": self.name,
            "generations": [inspect_checkpoint(self.current_path),
                            inspect_checkpoint(self.previous_path)],
        }
