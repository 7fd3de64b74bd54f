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
tables over a chunk of observations, or in a slice of their bins at one
observation; the distinct profiles are priced for a slab of grid points
at once, as the LP prices its candidate rows (objective_coefficients),
and each point's table sums are one matrix-vector product of those
counts with the point's prices (the method of types).  Since
d(w, z ^ (2**n - 1)) = n - d(w, z), a bin's profile at the complement of
z is its profile at z reversed, so the 2**n observations are priced as
2**(n-1) complement pairs: z < 2**(n-1) is gathered and each distinct
profile is priced as given and reversed.  For a coset table
(is_coset_table) every observation has the conditional entropy of z = 0,
so z = 0 alone gives the exact average.  _block_bits holds both rules,
and every equivocation entry point goes through it: the curves,
ensemble_bits, and conditional_equivocation, whose one observation z is
priced as the coset route prices z = 0.  Nothing is sampled.  Every
kernel, certificate and per-bin profile pass holds about _CHUNK_CELLS
distance cells beside the tables, however large 2**n is; a block is cut
into slices of bins by one rule (_bins_per_slice).
"""

import itertools
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
    P = rows @ gamma if np.ndim(gamma) == 1 else np.einsum("sd,gd->sg", gamma, rows)
    # -P log2 P elementwise, 0 log 0 = 0, in one buffer beside P
    f = np.empty_like(P)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log2(P, out=f)
        f *= P
        np.negative(f, out=f)
        f[P <= 0.0] = 0.0
    return f


def _bins_per_slice(block):
    # bins per slice of a (B, K, 2**l) block: about _CHUNK_CELLS words, one bin at least
    return max(1, _CHUNK_CELLS // (max(1, len(block)) * block.shape[2]))


def _profiles(block, zs, n):
    """(cells, n+1) distance profiles of a (B, K, 2**l) block of bins of
    n-bit words: row c counts the words of cell c's bin at each distance
    from its observation, cells in the order (table, observation of zs,
    bin).  One bincount; callers bound the block."""
    dist = np.bitwise_count(block[:, None] ^ zs[:, None, None]).reshape(-1, block.shape[2])
    cells = dist + np.arange(0, len(dist) * (n + 1), n + 1)[:, None]
    return np.bincount(cells.ravel(), minlength=len(dist) * (n + 1)).reshape(-1, n + 1)


def _types(block, zs, n):
    """The kernel: the distinct distance profiles of a block and their counts.

    Every (table, observation, bin) cell of a (B, K, 2**l) block of bins
    of n-bit words (whole tables, or a slice of their bins) at the
    observations zs has a profile (_profiles), an LP candidate row.
    Returns `rows`, (G, n+1) floats, the distinct profiles, and `counts`,
    (B, G) floats, how many cells of each table have each one.  A table's
    entropy at p, summed over zs and the block's bins, is then counts . f
    with f = objective_coefficients(rows, channel_weights(p, n)) (the
    method of types).  A profile c is grouped by its exact key
    sum_d c_d (2**l + 1)**d, the sum over the cell's words w of the term
    (2**l + 1)**d(w, z), so no profile is built; the terms of every word
    at every observation are tabled once for all B tables when that
    table holds at most _CHUNK_CELLS terms and is shared (the block holds
    more than 2**n words), and computed for the block's own words
    otherwise.  When a key can pass 2**63 every cell is its own group.
    Memory is a small multiple of the block's cells.
    """
    base = block.shape[2] + 1
    if base ** (n + 1) < 1 << 63:
        powers = base ** np.arange(n + 1, dtype=np.int64)
        if len(zs) << n <= _CHUNK_CELLS and block.size > 1 << n:
            terms = powers[np.bitwise_count(np.arange(1 << n, dtype=np.uint32)[:, None] ^ zs)][block]
        else:
            terms = powers[np.bitwise_count(block[..., None] ^ zs)]
        # einsum sums each bin's words without a short-axis reduction per
        # cell; keys are in cell order (table, z, bin)
        keys = np.einsum("bkwz->bzk", terms).ravel()
        del terms  # freed before np.unique sorts the keys
        keys, group = np.unique(keys, return_inverse=True)
        rows = keys[:, None] // powers % base
    else:
        rows = _profiles(block, zs, n)
        group = np.arange(len(rows))
    table = np.arange(len(group)) // (len(group) // len(block))
    counts = np.bincount(table * len(rows) + group, minlength=len(block) * len(rows))
    return rows.astype(float), counts.reshape(len(block), len(rows)).astype(float)


def _block_bits(block, coset, gammas, z):
    """Grid slabs (j, bits) of a (B, 2**k, 2**l) block of valid tables, the
    route rule: tables flagged in the boolean `coset` are priced at the one
    observation z alone (at z = 0 a certified coset table's exact average,
    is_coset_table; at any z conditional_equivocation), the rest over all
    2**n observations, coset route first.  A route is cut, in block order,
    into groups of max(1, _CHUNK_CELLS // (observations x 2**n)) tables,
    so a group at all of its route's observations fills one chunk unless
    one table alone is wider; bits[i] holds a group's equivocations in
    bits, in block order, at weight row j + i.  The full route gathers
    only z < 2**(n-1): a chunk's profiles `rows` are priced as they are and
    as rows[:, ::-1], the profiles at the complements z ^ (2**n - 1), in
    one objective_coefficients call whose weight rows are the slab's rows
    and their reversals (rows[:, ::-1] . gamma = rows . gamma[::-1]); the
    two entropy terms are added, and the sums are divided by 2**n.  A group
    goes to _types in chunks of about _CHUNK_CELLS cells: several
    observations of whole tables, or, when one observation of the tables
    is wider, one observation of a slice of their bins (_bins_per_slice).
    A chunk's profiles are priced for a slab of weight rows x max(tables,
    profiles) values, about _CHUNK_CELLS >> 4, or one grid row (two weight
    rows on the full route), and each point's table sums are one
    counts @ f[i].  Several chunks of a group add their slabs into sums
    held over the grid, which the group's last chunk yields.
    """
    n = (block.shape[1] * block.shape[2]).bit_length() - 1
    for members, origin, count, paired in ((coset, z, 1, False), (~coset, 0, 1 << n - 1, True)):
        # a route that takes the whole block reads it uncopied, and its groups are views
        route = block if members.all() else block[members]
        stride = max(1, _CHUNK_CELLS // (count << n))
        for tables in (route[g : g + stride] for g in range(0, len(route), stride)):
            step = max(1, _CHUNK_CELLS // tables.size)
            width = _bins_per_slice(tables)
            starts = range(0, count if len(gammas) else 0, step)
            slices = range(0, tables.shape[1], width)
            last = len(starts) * len(slices) - 1
            held = np.zeros((len(gammas), len(tables))) if last > 0 else None
            for i, (start, c) in enumerate(itertools.product(starts, slices)):
                zs = np.arange(origin + start, origin + min(start + step, count), dtype=np.uint32)
                rows, counts = _types(tables[:, c : c + width], zs, n)
                # paired slabs price each grid row twice: half as many rows per slab
                size = max(1, (_CHUNK_CELLS >> (4 + paired)) // max(len(tables), len(rows)))
                for j in range(0, len(gammas), size):
                    gamma = gammas[j : j + size]
                    f = objective_coefficients(rows, np.concatenate([gamma, gamma[:, ::-1]]) if paired else gamma)
                    if paired:
                        f = f[: len(gamma)] + f[len(gamma) :]
                    sums = np.array([counts @ f_i for f_i in f])
                    if held is not None:
                        held[j : j + size] += sums
                        sums = held[j : j + size]
                    if i == last:
                        yield j, sums / (count << paired)
                del rows, counts  # freed before the next chunk's kernel call


def _translates(bins):
    # each bin of a (B, K, 2**l) array XORed by its first word, sorted
    moved = bins ^ bins[:, :, :1]
    moved.sort(axis=2)
    return moved


def _coset_mask(block):
    """Per table of a (B, 2**k, 2**l) block of valid tables: is_coset_table.

    Every bin's _translates must equal bin 0's, the set T; compared in
    chunks of about _CHUNK_CELLS words, vectorised over tables, and
    stopped once no table passes.  The GF(2) rank of T runs once, over
    the stack of the tables that pass.
    """
    l = block.shape[2].bit_length() - 1
    n = (block.shape[1] << l).bit_length() - 1
    home = _translates(block[:, :1])
    ok = np.ones(len(block), dtype=bool)
    step = _bins_per_slice(block)
    for start in range(1, block.shape[1], step):
        if not ok.any():
            break
        ok &= (_translates(block[:, start : start + step]) == home).all(axis=(1, 2))
    ok[ok] = word_rank(home[ok, 0], n) == l
    return ok


def is_coset_table(t):
    """True iff the bins of t are the cosets of a subgroup of GF(2)**n.

    XOR by z then permutes the bins and preserves distances, so every
    observation has the conditional entropy of z = 0.  Exact, in O(2**n)
    time and with no buffer of 2**n entries: every bin, XORed by its first
    word, must be the set T that bin 0 gives (T holds 0), so every bin is
    a translate of T; T then is a subgroup iff its GF(2) rank is l, since
    it holds 0 and 2**l words, and the bins are its cosets.
    """
    return bool(_coset_mask(t.array[None])[0])


class EquivocationCurve(NamedTuple):
    """Bits per grid point; route "coset" (z = 0 alone) or "full" (all 2**n
    observations, priced as 2**(n-1) complement pairs)."""

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
    for j, h in _block_bits(t.array[None], coset, gammas, 0):
        bits[j : j + len(h)] = h[:, 0]
    return EquivocationCurve(bits, "coset" if coset[0] else "full")


def ensemble_bits(blocks, n, grid):
    """Per grid point (top, total, bottom, routes) over every table of
    `blocks`, an iterable of (B, 2**k, 2**l) word arrays of valid tables of
    blocklength n: the max, the sum (extended precision where the platform
    has it) and the min of their equivocations in bits, and how many took
    each route.  Each block is certified once and handed whole to
    _block_bits, which cuts it into kernel chunks; the slabs it yields are
    folded as they come.  Memory grows with neither blocks nor the grid.
    """
    gammas = _weight_rows(grid, n)
    top, bottom = np.full(len(gammas), -np.inf), np.full(len(gammas), np.inf)
    total = np.zeros(len(gammas), dtype=np.longdouble)
    routes = {"coset": 0, "full": 0}
    for block in blocks:
        coset = _coset_mask(block)
        routes["coset"] += int(coset.sum())
        routes["full"] += int((~coset).sum())
        for j, bits in _block_bits(block, coset, gammas, 0):
            span = slice(j, j + len(bits))
            np.maximum(top[span], bits.max(axis=1), out=top[span])
            np.minimum(bottom[span], bits.min(axis=1), out=bottom[span])
            total[span] += bits.sum(axis=1, dtype=np.longdouble)
    return top, total, bottom, routes


def total_equivocation(t, p):
    """equivocation_curve at the single crossover p."""
    return float(equivocation_curve(t, [p]).bits[0])


def total_equivocation_linear(t, p):
    """total_equivocation of a certified coset table, H(M|Z=0) (Wyner);
    NotLinearError for any other."""
    if not is_coset_table(t):
        raise NotLinearError(
            "not a coset table: its translate by some unit vector differs from it "
            "as a partition, so H(M|Z=0) need not be the equivocation"
        )
    return conditional_equivocation(t, 0, p)


def _check_observation(t, z):
    if not 0 <= z < (1 << t.n):
        raise ValueError("z does not fit in %d bits" % t.n)


def _bin_slices(t, z):
    # z as the kernel's one-observation array, and the slices of t's bins
    # whose profiles at z are gathered one at a time
    _check_observation(t, z)
    width = _bins_per_slice(t.array[None])
    return np.array([z], dtype=np.uint32), [slice(c, c + width) for c in range(0, len(t.array), width)]


def distance_profile(t, z):
    """Per-bin histogram of Hamming distances to observation z.

    Returns a (2**k, n+1) integer array whose row i counts the words of
    bin i at each distance from z.  Rows sum to 2**l and column j sums
    to C(n, j) over all bins, since the bins partition the space.
    """
    zs, slices = _bin_slices(t, z)
    # one output filled a slice at a time: never the profile twice over
    out = np.empty((len(t.array), t.n + 1), dtype=np.int64)
    for s in slices:
        out[s] = _profiles(t.array[None, s], zs, t.n)
    return out


def bin_posteriors(t, z, p):
    """Bin probabilities given z: the distance profile times channel_weights,
    a slice of bins at a time, so the whole profile is never held."""
    zs, slices = _bin_slices(t, z)
    gamma = channel_weights(p, t.n)
    out = np.empty(len(t.array))
    for s in slices:
        # einsum casts the integer profile in buffers, not as a whole float copy
        np.einsum("id,d->i", _profiles(t.array[None, s], zs, t.n), gamma, out=out[s])
    return out


def conditional_equivocation(t, z, p):
    """Entropy in bits of the bin posterior given one observation z.

    One _block_bits call that prices t at z alone, as the coset route
    prices z = 0.  Uses the convention 0 * log 0 = 0.  For p = 0 or p = 1
    the posterior is a point mass and the value is exactly 0.
    """
    _check_observation(t, z)
    return float(next(_block_bits(t.array[None], np.ones(1, dtype=bool), _weight_rows([p], t.n), z))[1][0, 0])


def equivocation_rate(t, p):
    """total_equivocation divided by the blocklength."""
    return total_equivocation(t, p) / t.n
