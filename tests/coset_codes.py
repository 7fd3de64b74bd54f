"""Coset tables built from the column types of a generator, for the tests of
the type counter and of the kernel's coset route."""

import numpy as np

from wiretap import CodeTable
from wiretap.bitcore import word_basis


def coset_table_of(l, columns):
    """The table of the l x n generator G whose column j is columns[j] in
    F_2**l (bit r of it is row r's entry), n = len(columns): its bins are
    the cosets of G's row space, bin i holding the coset of the word with
    the bits of i at the positions that lead no basis word.  CodeTable
    refuses generators of rank below l (their bins are no partition)."""
    n = len(columns)
    cols = np.asarray(columns, dtype=np.int64)
    rows = ((cols[None, :] >> np.arange(l)[:, None]) & 1) @ (1 << np.arange(n, dtype=np.int64))
    code = np.zeros(1, dtype=np.int64)
    for row in rows:
        code = np.concatenate([code, code ^ row])
    # a word vanishing at every leading bit of the basis is in the code only if it is 0
    leads = {int(w).bit_length() - 1 for w in word_basis(rows, n) if w}
    free = np.array([b for b in range(n) if b not in leads], dtype=np.int64)
    reps = ((np.arange(1 << len(free))[:, None] >> np.arange(len(free))) & 1) @ (1 << free)
    return CodeTable(l, n - l, reps[:, None] ^ code[None])


def compositions(parts, n):
    """Every tuple of `parts` nonnegative integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(parts - 1, n - first):
            yield (first, *rest)


def columns_of(counts):
    """The column list of a composition: counts[t] columns equal to t."""
    return [t for t, c in enumerate(counts) for _ in range(c)]
