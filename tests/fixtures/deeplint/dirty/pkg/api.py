"""The fixture's documented stable surface (shim module)."""

__all__ = ["get_new", "old_helper", "only_tested"]

_DEPRECATED = {"OLD": "get_new"}


def get_new():
    return 1


def old_helper():
    return get_new()


def only_tested():
    """Seeded DL105 violation: documented in API.md and listed in
    ``__all__``, but only a test calls it."""
    return 2


def __getattr__(name):
    if name in _DEPRECATED:
        return get_new()
    raise AttributeError(name)
