"""Lazy package re-exports (PEP 562), shared by the package ``__init__``s.

``repro``, ``repro.analysis`` and ``repro.workloads`` re-export names
whose home modules import numpy and the simulator; resolving them on
first use keeps ``import repro.cli`` and every cache-only verb off that
cost (docs/INTERNALS.md, "Import tiers").  ``repro.core``,
``repro.core.hwext`` and ``repro.sim`` do the same, so the latency
study, which imports one leaf module of each, loads no allocator.
``repro.faults`` does the same for its injector, which a warm
``scenario run`` never needs.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for the ``__init__`` of *package*.

    *exports* maps a relative submodule (``".core"``) to the names the
    package re-exports from it.  The first access to a name imports its
    submodule and stores the object in the package's globals, so every
    later access is a plain global lookup and a name somebody set on
    the package beforehand (a test, a benchmark tap) is never replaced.
    """
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str):
        if name in home:
            # Through ``__import__``, not ``importlib.import_module``:
            # only the former is what ``-X importtime`` (which CI
            # reads) lists.
            value = getattr(__import__(package + home[name],
                                       fromlist=(name,)), name)
            namespace[name] = value
            return value
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__
