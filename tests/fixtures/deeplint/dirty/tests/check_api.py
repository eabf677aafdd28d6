"""The fixture's test: it calls ``pkg.api.only_tested``, and a test is
never a DL105 root."""

from pkg.api import only_tested


def check_only_tested():
    return only_tested() == 2
