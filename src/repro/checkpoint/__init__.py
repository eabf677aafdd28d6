"""Durable checkpoint/restore for long-horizon runs.

Long churn loops, sharded fleet campaigns and experiment cells all
checkpoint through the same primitive: a versioned,
SHA-256-checksummed ``RPCK`` envelope written with the atomic tempfile
+ ``os.replace`` idiom and rotated across two generations, so a SIGKILL at any point leaves at least one fully-valid
checkpoint and a resumed run produces manifests byte-identical to an
uninterrupted one.  See ``docs/ROBUSTNESS.md`` for the format, the
guarantees and the failure matrix.
"""

from .format import (
    FORMAT_VERSION,
    MAGIC,
    Checkpoint,
    CheckpointStore,
    encode_checkpoint,
    inspect_checkpoint,
    read_checkpoint,
)
from .runstate import maybe_crash, restore_kernel
from .watchdog import DEFAULT_DEADLINE_S, DeadlineWatchdog

__all__ = [
    "DEFAULT_DEADLINE_S",
    "FORMAT_VERSION",
    "MAGIC",
    "Checkpoint",
    "CheckpointStore",
    "DeadlineWatchdog",
    "encode_checkpoint",
    "inspect_checkpoint",
    "maybe_crash",
    "read_checkpoint",
    "restore_kernel",
]
