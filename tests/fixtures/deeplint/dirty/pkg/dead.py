"""Seeded DL105 violation: no module body or example reaches orphan()."""


def orphan():
    return 0
