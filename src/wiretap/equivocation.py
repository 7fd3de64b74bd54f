"""Exact eavesdropper equivocation over a binary symmetric channel.

The eavesdropper sees the transmitted word through a BSC with crossover
probability p.  Because the channel is memoryless, the likelihood of an
observation z given codeword x depends only on their Hamming distance d:
it is p**d * q**(n-d) with q = 1 - p.  Summing likelihoods over the words
of each bin gives the bin posterior (messages are uniform, so the
normalizer cancels inside the entropy average), and the equivocation is
the entropy of that posterior averaged over all 2**n observations.

The likelihood sum of a bin is its distance profile (how many of its
words lie at each distance from z) times the vector of p**d * q**(n-d),
so a bin's entropy term depends on its profile alone.  One kernel,
_types, counts how often each distinct profile occurs in a block of
tables over a chunk of observations; the distinct profiles are priced
for a slab of grid points at once, as the LP prices its candidate rows
(objective_coefficients), and each point's table sums are one
matrix-vector product of those counts with the point's prices (the
method of types).  For a coset table (is_coset_table) every observation
has the conditional entropy of z = 0, so z = 0 alone gives the exact
average; _block_bits, which every curve and compare go through, holds
that rule.  Nothing is sampled.
"""

from typing import NamedTuple

import numpy as np

from .bitcore import word_rank


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


# Tables and observations per kernel call: about this many distance
# cells, never fewer than one table at one observation.  A grid slab of
# prices and sums holds about a sixteenth as many values.
_CHUNK_CELLS = 1 << 16


def objective_coefficients(rows, gamma):
    """f_i = -P_i log2 P_i with P_i = rows[i] . gamma, 0 log 0 = 0.

    A row counts the words of one bin at each distance from an
    observation, so with gamma = channel_weights(p, n) P_i is that bin's
    posterior mass and f_i its entropy term: the LP objective and the
    equivocation kernel price rows alike.  Evaluated formally for every
    row, including rows with P_i > 1 whose coefficient is negative; the
    maximization simply never picks them.  A (S, n+1) stack of weight
    rows gives (S, N) coefficients, row j at gamma[j]; each point's
    masses are reduced on their own, so no other row of the stack
    changes a bit of them.
    """
    if np.ndim(gamma) == 1:
        return _entropy_terms(rows @ gamma)
    return _entropy_terms(np.einsum("sd,gd->sg", gamma, rows))


def _entropy_terms(P):
    # -P log2 P elementwise, 0 log 0 = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(P > 0.0, -P * np.log2(P), 0.0)


def _profiles(block, zs):
    """(cells, n+1) distance profiles of a (B, 2**k, 2**l) block of tables:
    row c counts the words of cell c's bin at each distance from its
    observation, cells in the order (table, observation of zs, bin).  One
    bincount per _CHUNK_CELLS distances."""
    n = (block.shape[1] * block.shape[2]).bit_length() - 1
    dist = np.bitwise_count(block[:, None] ^ zs[:, None, None]).reshape(-1, block.shape[2])
    rows = np.empty((len(dist), n + 1), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // dist.shape[1])
    for start in range(0, len(dist), step):
        part = dist[start : start + step]
        cells = part + np.arange(0, len(part) * (n + 1), n + 1)[:, None]
        rows[start : start + step] = np.bincount(cells.ravel(), minlength=len(part) * (n + 1)).reshape(-1, n + 1)
    return rows


def _types(block, zs):
    """The kernel: the distinct distance profiles of a block and their counts.

    Every (table, observation, bin) cell of a (B, 2**k, 2**l) block of
    valid tables at the observations zs has a profile (_profiles), an LP
    candidate row.  Returns `rows`, (G, n+1) floats, the distinct
    profiles, and `counts`, (B, G) floats, how many cells of each table
    have each one.  A table's entropy at p, summed over zs, is then
    counts . f with f = objective_coefficients(rows, channel_weights(p, n))
    (the method of types).  A profile c is grouped by its exact key
    sum_d c_d (2**l + 1)**d, the sum over the cell's words w of the term
    (2**l + 1)**d(w, z), so no profile is built; the terms of every word
    at every observation of zs are tabled once for all B tables.  When a
    key can pass 2**63 every cell is its own group.
    """
    n = (block.shape[1] * block.shape[2]).bit_length() - 1
    base = block.shape[2] + 1
    if base ** (n + 1) < 1 << 63:
        powers = base ** np.arange(n + 1, dtype=np.int64)
        terms = powers[np.bitwise_count(np.arange(1 << n, dtype=np.uint32)[:, None] ^ zs)]
        # each slice of bins gathers about _CHUNK_CELLS terms, a word's row
        # at a time, and einsum sums each bin's words without a short-axis
        # reduction per cell; keys are in cell order (table, z, bin)
        keys = np.empty((len(block), len(zs), block.shape[1]), dtype=np.int64)
        step = max(1, _CHUNK_CELLS // (len(block) * len(zs) * block.shape[2]))
        for c in range(0, block.shape[1], step):
            keys[:, :, c : c + step] = np.einsum("bkwz->bzk", terms[block[:, c : c + step]])
        del terms  # freed before np.unique sorts the keys
        keys, group = np.unique(keys.ravel(), return_inverse=True)
        rows = keys[:, None] // powers % base
    else:
        rows = _profiles(block, zs)
        group = np.arange(len(rows))
    table = np.arange(len(group)) // (len(group) // len(block))
    counts = np.bincount(table * len(rows) + group, minlength=len(block) * len(rows))
    return rows.astype(float), counts.reshape(len(block), len(rows)).astype(float)


def _entropy_sums(block, count, gammas):
    """Grid slabs (j, sums) of a block of valid tables: sums[i, b] is the
    entropy of table b at weight row j + i of gammas, summed over the
    observations 0..count-1.

    Observations go to _types in chunks of about _CHUNK_CELLS cells.  A
    chunk's distinct profiles are priced for a slab of weight rows in one
    objective_coefficients call, and each point's table sums are one
    counts @ f[i].  A slab holds grid rows x max(tables, profiles) values,
    about _CHUNK_CELLS >> 4, or a single grid row.  With several chunks
    (a block whose full route passes _CHUNK_CELLS, in practice one wide
    table) every chunk adds its slabs into sums held over the whole grid,
    and the last chunk yields them.
    """
    step = max(1, _CHUNK_CELLS // block.size)
    starts = range(0, count if len(gammas) else 0, step)
    held = np.zeros((len(gammas), len(block))) if len(starts) > 1 else None
    for start in starts:
        rows, counts = _types(block, np.arange(start, min(start + step, count), dtype=np.uint32))
        size = max(1, (_CHUNK_CELLS >> 4) // max(len(block), len(rows)))
        for j in range(0, len(gammas), size):
            sums = np.array([counts @ f for f in objective_coefficients(rows, gammas[j : j + size])])
            if held is not None:
                held[j : j + size] += sums
                sums = held[j : j + size]
            if start == starts[-1]:
                yield j, sums


def _block_bits(block, coset, gammas):
    """Grid slabs (j, bits) of a (B, 2**k, 2**l) block of valid tables: the
    route rule.  Tables flagged in the boolean `coset` are priced at z = 0
    alone (exact for a coset table, is_coset_table), the rest over all
    2**n observations.  Each route with members yields the slabs of one
    _entropy_sums, coset route first: bits[i] holds the equivocations in
    bits of that route's tables, in block order, at weight row j + i."""
    n = (block.shape[1] * block.shape[2]).bit_length() - 1
    for members, count in ((coset, 1), (~coset, 1 << n)):
        if members.any():
            # a route that takes the whole block reads it uncopied
            for j, sums in _entropy_sums(block if members.all() else block[members], count, gammas):
                yield j, sums / count


def _coset_mask(block):
    """Per table of a (B, 2**k, 2**l) block of valid tables: is_coset_table.

    One scatter maps each word to its bin and one gather shows whether
    XOR by its first word maps every bin into the bin S that holds 0,
    both chunked over bins.  The GF(2) rank of S runs only for the tables
    that pass.
    """
    l = block.shape[2].bit_length() - 1
    n = (block.shape[1] << l).bit_length() - 1
    # word w of table b sits at b * 2**n + w of the flat word -> bin map
    offsets = (np.arange(len(block), dtype=np.int64) << n)[:, None, None]
    step = max(1, _CHUNK_CELLS // (len(block) << l))
    chunks = [slice(start, start + step) for start in range(0, block.shape[1], step)]
    # the smallest unsigned type that holds every bin index
    index = np.min_scalar_type(block.shape[1] - 1)
    bin_of = np.empty(len(block) << n, dtype=index)
    for c in chunks:
        bin_of[block[:, c] + offsets] = np.arange(block.shape[1], dtype=index)[c, None]
    home = bin_of[offsets.ravel()]
    ok = np.ones(len(block), dtype=bool)
    for c in chunks:
        bins = block[:, c]
        ok &= (bin_of[(bins ^ bins[:, :, :1]) + offsets] == home[:, None, None]).all(axis=(1, 2))
    for b in np.flatnonzero(ok):
        ok[b] = word_rank(block[b, home[b]], n) == l
    return ok


def is_coset_table(t):
    """True iff the bins of t are the cosets of a subgroup of GF(2)**n.

    XOR by z then permutes the bins and preserves distances, so every
    observation has the conditional entropy of z = 0.  Exact, in O(2**n):
    one gather shows that XOR by its first word maps every bin into the
    bin S that holds 0, so every bin is a translate of S (both have 2**l
    words); S then is a subgroup iff its GF(2) rank is l, since it holds
    0 and 2**l words.
    """
    return bool(_coset_mask(t.array[None])[0])


class EquivocationCurve(NamedTuple):
    """Bits per grid point; route "coset" (z = 0 alone) or "full" (all 2**n observations)."""

    bits: np.ndarray
    route: str


def _weight_rows(grid, n):
    """The (P, n+1) matrix of channel_weights rows, one per crossover of `grid`."""
    return np.array([channel_weights(p, n) for p in grid]).reshape(-1, n + 1)


def equivocation_curve(t, grid):
    """H(M|Z) in bits at every p of `grid`: the mean over all 2**n observations
    of conditional_equivocation (observations are equally likely).

    Values lie in [0, k]: 0 at p = 0 and p = 1, k at p = 1/2; none depends
    on the other grid points.  A certified coset table is evaluated at
    z = 0 only.
    """
    coset = _coset_mask(t.array[None])
    gammas = _weight_rows(grid, t.n)
    bits = np.empty(len(gammas))
    for j, h in _block_bits(t.array[None], coset, gammas):
        bits[j : j + len(h)] = h[:, 0]
    return EquivocationCurve(bits, "coset" if coset[0] else "full")


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
    return float(next(_block_bits(t.array[None], np.ones(1, dtype=bool), _weight_rows([p], t.n)))[1][0, 0])


def distance_profile(t, z):
    """Per-bin histogram of Hamming distances to observation z.

    Returns a (2**k, n+1) integer array whose row i counts the words of
    bin i at each distance from z.  Rows sum to 2**l and column j sums
    to C(n, j) over all bins, since the bins partition the space.
    """
    if not 0 <= z < (1 << t.n):
        raise ValueError("z does not fit in %d bits" % t.n)
    return _profiles(t.array[None], np.array([z], dtype=np.uint32))


def bin_posteriors(t, z, p):
    """Bin probabilities given z: the distance profile times channel_weights."""
    # einsum casts the integer profile in buffers, not as a whole float copy
    return np.einsum("id,d->i", distance_profile(t, z), channel_weights(p, t.n))


def conditional_equivocation(t, z, p):
    """Entropy in bits of the bin posterior given one observation z.

    Uses the convention 0 * log 0 = 0.  For p = 0 or p = 1 the posterior
    is a point mass and the value is exactly 0.
    """
    return float(_entropy_terms(bin_posteriors(t, z, p)).sum())


def equivocation_rate(t, p):
    """total_equivocation divided by the blocklength."""
    return total_equivocation(t, p) / t.n
