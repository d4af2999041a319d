"""A package for ``tests/test_reach_tool.py``: one function per ledger case."""


def used():  # the driver calls it
    return helper()


def helper():  # reached through ``used``
    return 1


def listed():  # reached by nothing, and the ledger keeps it
    return 2


def unlisted():  # reached by nothing, and the ledger does not list it
    return 3


def tooled():  # reached only by the tool driver, and listed as ``tool``
    return 4
