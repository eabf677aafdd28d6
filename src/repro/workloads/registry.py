"""The kebab-case service registry behind the typed workload front door.

Service models used to be reachable only as module constants
(``WEB``, ``CACHE_A``, ...) plus an ad-hoc ``BY_NAME`` dict keyed by the
specs' CamelCase display names.  The registry replaces both with the
same named-lookup surface the experiment specs use: kebab-case
canonical names, loud :class:`~repro.errors.ConfigurationError` lookups
listing what *is* known, and an extension point
(:func:`register_service`) for out-of-tree specs.

The specs' CamelCase display names (``"CacheB"``) keep working as
lookup aliases so existing CLI invocations and serialized configs do
not break.
"""

from __future__ import annotations

import re

from ..errors import ConfigurationError
from .base import WorkloadSpec

_NAME_RE = re.compile(r"^[a-z0-9]+(?:-[a-z0-9]+)*$")

_SERVICES: dict[str, WorkloadSpec] = {}
#: Legacy lookup aliases (the specs' CamelCase display names).
_ALIASES: dict[str, str] = {}


def register_service(name: str, spec: WorkloadSpec) -> WorkloadSpec:
    """Register *spec* under the kebab-case *name*.

    The spec's own display name (``spec.name``, CamelCase in the
    built-ins) is kept as a lookup alias.  A name registers once.
    """
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"service name {name!r} is not kebab-case "
            "(lowercase words separated by dashes)")
    if not isinstance(spec, WorkloadSpec):
        raise ConfigurationError(
            f"register_service takes a WorkloadSpec, "
            f"got {type(spec).__name__}")
    if name in _SERVICES:
        raise ConfigurationError(f"service {name!r} already registered")
    _SERVICES[name] = spec
    if spec.name != name:
        _ALIASES[spec.name] = name
    return spec


def get_service(name: str) -> WorkloadSpec:
    """Look up a service spec by kebab-case name (or legacy alias)."""
    spec = _SERVICES.get(name)
    if spec is not None:
        return spec
    canonical = _ALIASES.get(name)
    if canonical is not None:
        return _SERVICES[canonical]
    known = ", ".join(sorted(_SERVICES)) or "<none>"
    raise ConfigurationError(
        f"unknown service {name!r}; known services: {known}")


def canonical_service_name(name: str) -> str:
    """Resolve *name* (canonical or alias) to its kebab-case form."""
    if name in _SERVICES:
        return name
    canonical = _ALIASES.get(name)
    if canonical is not None:
        return canonical
    known = ", ".join(sorted(_SERVICES)) or "<none>"
    raise ConfigurationError(
        f"unknown service {name!r}; known services: {known}")


# The built-in services register themselves when their module loads.
# Loading it from here means every path to a lookup sees them, whichever
# submodule was imported first (the package ``__init__`` is lazy).
from . import services as _builtin_services  # noqa: E402,F401
