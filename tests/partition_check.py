"""A partition check independent of the one CodeTable makes when it is built."""


def is_partition(t):
    """True iff the table's words are 0 .. 2**n - 1, each exactly once."""
    return sorted(t.array.ravel().tolist()) == list(range(1 << t.n))
