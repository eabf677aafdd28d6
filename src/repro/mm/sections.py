"""Helpers every layer's ``snapshot()``/``restore()`` shares.

A snapshot is a flat mapping of named sections, each a numpy array or
a JSON-safe value (the checkpoint envelope writes one as raw bytes, the
other as JSON).  A layer names its own sections; the layer holding it
files them under a prefix with :func:`nest` and hands them back with
:func:`scope`.  An allocation is named by its
:class:`~repro.mm.handle.HandleRegistry` slot.
"""

from __future__ import annotations

import random
import struct

import numpy as np


def nest(prefix: str, sections: dict) -> dict:
    """*sections* with every name under ``prefix.``."""
    return {f"{prefix}.{name}": value for name, value in sections.items()}


def scope(prefix: str, sections) -> dict:
    """The sections under ``prefix.``, named without it (:func:`nest`
    inverted)."""
    head = prefix + "."
    return {name[len(head):]: value for name, value in sections.items()
            if name.startswith(head)}


def int64(values: list[int]) -> np.ndarray:
    """A list of ints as a read-only int64 array (``struct`` packs a
    list in one pass, faster than numpy converts one); anything else in
    the list raises ``struct.error``."""
    return np.frombuffer(struct.pack(f"<{len(values)}q", *values),
                         dtype=np.int64)


def rows_of(values, bound: int) -> list[int]:
    """An array (or list) of indices as a list, each checked to be an
    int in ``[0, bound)`` (a negative one would wrap silently)."""
    values = np.asarray(values)
    if values.size and (values.dtype.kind not in "iu" or values.min() < 0
                        or values.max() >= bound):
        raise IndexError(f"indices outside [0, {bound})")
    return values.tolist()


def rng_state(rng: random.Random) -> list:
    """A ``random.Random``'s state as JSON: ``[version, [625 ints],
    gauss_next]``."""
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def set_rng_state(rng: random.Random, state: list) -> None:
    version, internal, gauss_next = state
    rng.setstate((version, tuple(internal), gauss_next))
