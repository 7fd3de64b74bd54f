"""Exact eavesdropper equivocation over a binary symmetric channel.

The eavesdropper sees the transmitted word through a BSC with crossover
probability p.  Because the channel is memoryless, the likelihood of an
observation z given codeword x depends only on their Hamming distance d:
it is p**d * q**(n-d) with q = 1 - p.  Summing likelihoods over the words
of each bin gives the bin posterior (messages are uniform, so the
normalizer cancels inside the entropy average), and the equivocation is
the entropy of that posterior averaged over all 2**n observations.

One kernel, _bin_masses, computes every posterior.  For a coset table
(is_coset_table) every observation has the conditional entropy of z = 0,
so z = 0 alone gives the exact average.  Nothing is sampled.
"""

from typing import NamedTuple

import numpy as np

from .bitcore import require_valid, word_rank


class NotLinearError(ValueError):
    """total_equivocation_linear was given a table that is not a coset table."""


def channel_weights(p, n):
    """Vector gamma with gamma[d] = p**d * (1-p)**(n-d) for d = 0..n.

    Built by iterative multiplication from the larger end: for p <= 1/2
    up from gamma[0] = q**n by the ratio p / q, for p > 1/2 down from
    gamma[n] = p**n by q / p, so the start never underflows (it is at
    least 2**-n) and no ratio exceeds 1.  The endpoints p = 0 and p = 1
    are special-cased so no 0/0 appears.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1], got %r" % (p,))
    if n < 1:
        raise ValueError("n must be positive")
    gamma = np.zeros(n + 1)
    if p == 0.0:
        gamma[0] = 1.0
        return gamma
    if p == 1.0:
        gamma[n] = 1.0
        return gamma
    q = 1.0 - p
    if p > 0.5:
        gamma[n] = p ** n
        ratio = q / p
        for d in range(n, 0, -1):
            gamma[d - 1] = gamma[d] * ratio
        return gamma
    gamma[0] = q ** n
    ratio = p / q
    for d in range(n):
        gamma[d + 1] = gamma[d] * ratio
    return gamma


# Chunk observations and weight rows so one gather stays around this
# many cells regardless of n (it never drops below one of each).
_CHUNK_CELLS = 1 << 22
_TINY = np.finfo(float).tiny


def _distances(words, zs):
    """(Z, 2**k, 2**l) Hamming distances from each observation of zs to each word."""
    return np.bitwise_count(np.bitwise_xor.outer(zs, words))


def _bin_masses(dist, gammas):
    """The kernel: (P, Z, 2**k) bin masses for P weight rows, in one gather.

    `dist` is _distances of a valid table's words and `gammas` a
    (P, n+1) matrix.  Entry [j, a, i] sums gammas[j, d] over the words
    of bin i at distance d from observation a: the posterior of bin i
    when the row is channel_weights.
    """
    return np.take(gammas, dist, axis=1).sum(axis=-1)


def _entropies(masses):
    """Entropy in bits summed over observations, per weight row; a zero mass adds 0."""
    return -(masses * np.log2(np.maximum(masses, _TINY))).sum(axis=(1, 2))


def is_coset_table(t):
    """True iff the bins of t are the cosets of a subgroup of GF(2)**n.

    XOR by z then permutes the bins and preserves distances, so every
    observation has the conditional entropy of z = 0.  Exact, in O(2**n):
    one gather shows that XOR by its first word maps every bin into the
    bin S that holds 0, so every bin is a translate of S (both have 2**l
    words); S then is a subgroup iff its GF(2) rank is l, since it holds
    0 and 2**l words.  Raises ValueError for an invalid table.
    """
    require_valid(t)
    words = t.array
    bin_of = np.empty(1 << t.n, dtype=np.int32)
    bin_of[words] = np.arange(len(words), dtype=np.int32)[:, None]
    if not (bin_of[words ^ words[:, :1]] == bin_of[0]).all():
        return False
    return word_rank(words[bin_of[0]], t.n) == t.l


class EquivocationCurve(NamedTuple):
    """Bits per grid point; route "coset" (z = 0 alone) or "full" (all 2**n observations)."""

    bits: np.ndarray
    route: str


def _weight_rows(grid, n):
    """The (P, n+1) matrix of channel_weights rows, one per crossover of `grid`."""
    return np.array([channel_weights(p, n) for p in grid]).reshape(-1, n + 1)


def _curve(t, gammas, coset):
    # the kernel over observation chunks, and within each over blocks of
    # weight rows, so no gather holds much more than _CHUNK_CELLS cells;
    # z = 0 alone for a coset table
    count = 1 if coset else 1 << t.n
    chunk = max(1, _CHUNK_CELLS // (1 << t.n))
    sums = np.zeros(len(gammas))
    for start in range(0, count if len(gammas) else 0, chunk):
        dist = _distances(t.array, np.arange(start, min(start + chunk, count), dtype=np.uint32))
        step = max(1, _CHUNK_CELLS // dist.size)
        for j in range(0, len(gammas), step):
            sums[j : j + step] += _entropies(_bin_masses(dist, gammas[j : j + step]))
    return EquivocationCurve(sums / count, "coset" if coset else "full")


def equivocation_curve(t, grid):
    """H(M|Z) in bits at every p of `grid`: the mean over all 2**n observations
    of conditional_equivocation (observations are equally likely).

    Values lie in [0, k]: 0 at p = 0 and p = 1, k at p = 1/2; none depends
    on the other grid points.  The table is validated once; a certified
    coset table is evaluated at z = 0 only.
    """
    return _curve(t, _weight_rows(grid, t.n), is_coset_table(t))


def total_equivocation(t, p):
    """equivocation_curve at the single crossover p."""
    return float(equivocation_curve(t, [p]).bits[0])


def total_equivocation_linear(t, p):
    """total_equivocation of a certified coset table; NotLinearError for any other."""
    if not is_coset_table(t):
        raise NotLinearError(
            "not a coset table: its translate by some unit vector differs from it "
            "as a partition, so H(M|Z=0) need not be the equivocation"
        )
    return float(_curve(t, _weight_rows([p], t.n), True).bits[0])


def _one_observation(t, z):
    # the distances of one valid observation z to every word, (2**k, 2**l)
    require_valid(t)
    if not 0 <= z < (1 << t.n):
        raise ValueError("z does not fit in %d bits" % t.n)
    return _distances(t.array, np.array([z], dtype=np.uint32))[0]


def distance_profile(t, z):
    """Per-bin histogram of Hamming distances to observation z.

    Returns a (2**k, n+1) integer array whose row i counts the words of
    bin i at each distance from z.  Rows sum to 2**l and column j sums
    to C(n, j) over all bins, since the bins partition the space.
    """
    dist = _one_observation(t, z)
    cells = np.arange(len(dist), dtype=np.int64)[:, None] * (t.n + 1) + dist
    return np.bincount(cells.ravel(), minlength=len(dist) * (t.n + 1)).reshape(len(dist), t.n + 1)


def bin_posteriors(t, z, p):
    """Bin probabilities given z: the kernel at one observation."""
    return _bin_masses(_one_observation(t, z)[None], channel_weights(p, t.n)[None, :])[0, 0]


def conditional_equivocation(t, z, p):
    """Entropy in bits of the bin posterior given one observation z.

    Uses the convention 0 * log 0 = 0.  For p = 0 or p = 1 the posterior
    is a point mass and the value is exactly 0.
    """
    return float(_entropies(bin_posteriors(t, z, p)[None, None])[0])


def equivocation_rate(t, p):
    """total_equivocation divided by the blocklength."""
    return total_equivocation(t, p) / t.n
