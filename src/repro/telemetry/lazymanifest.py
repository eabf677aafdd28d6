"""The manifest a run result builds on first read: :class:`LazyManifest`.

Every front door's result class mixes it in, so this module is on every
run's import path; :mod:`repro.telemetry.manifest`, which builds,
writes, reads and diffs manifests, is loaded only when somebody reads
one (docs/INTERNALS.md, "Import tiers").
"""

from __future__ import annotations

from functools import cached_property


class LazyManifest:
    """Mixin for a run result whose manifest is built on first read.

    The run sets ``manifest_parts`` (:func:`build_manifest`'s keywords)
    when it ends, so the counters and config are the run's own;
    :meth:`manifest_derived` adds the parts a result works out from
    itself (aggregates that sort every sample, say), and it and the host
    facts (git rev, platform, time) are taken only when somebody reads
    :attr:`manifest`: a run nobody asks does none of that work and forks
    no ``git``.  A result with no parts (one only read back from a
    cache) has none.
    """

    manifest_parts: dict | None = None

    def manifest_derived(self) -> dict:
        """Manifest parts computed from the result on first read."""
        return {}

    @cached_property
    def manifest(self) -> dict | None:
        parts = self.manifest_parts
        if parts is None:
            return None
        from .manifest import build_manifest

        return build_manifest(**parts, **self.manifest_derived())
