"""The fixture's documented stable surface."""

__all__ = ["get_new", "only_tested"]


def get_new():
    return 1


def only_tested():
    """Seeded DL105 violation: documented in API.md and listed in
    ``__all__``, but only a test calls it."""
    return 2
