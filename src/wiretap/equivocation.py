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
so a bin's entropy term depends on its profile alone.  Two type
counters give how often each distinct profile occurs.  The kernel,
_types, gathers words: it counts the profiles of a block of tables over
a chunk of observations, or of a slice of their bins at one observation.
The second counter, _type_profiles, reads a certified coset table's
generator instead: at z = 0 the profiles of its bins depend only on m_t,
how many generator columns equal each t in F_2**l (Wyner's coset view),
so it sums over the prod_t (m_t + 1) tuples of column-type weights, each
with 2**l distances, and gives the kernel's (rows, counts) exactly.
Either way the distinct profiles are priced for a slab of grid points at
once, as the LP prices its candidate rows (objective_coefficients), and
each point's table sums are one matrix-vector product of those counts
with the point's prices (the method of types, _slabs).  Since
d(w, z ^ (2**n - 1)) = n - d(w, z), a bin's profile at the complement of
z is its profile at z reversed, so the 2**n observations are priced as
2**(n-1) complement pairs: z < 2**(n-1) is gathered and each distinct
profile is priced as given and reversed.  For a coset table
(is_coset_table) every observation has the conditional entropy of z = 0,
so z = 0 alone gives the exact average.  _block_bits holds these rules
and the cost rule between the counters: a certified coset table whose
column types take fewer terms, prod_t (m_t + 1) x 2**l, than its 2**n
words is counted by types (at n = 24 the family's 50 to 5,376 terms
against 16.8 million words).  Every equivocation entry point goes
through it: the curves, ensemble_bits, and conditional_equivocation,
whose one observation z of a table it does not certify goes to the
kernel as the coset route prices z = 0.  coset_code_curve runs the
second counter and the same pricing on column-type counts alone, with no
table, past any table's blocklength.  Nothing is sampled.  Every kernel,
counter block, certificate and per-bin profile pass holds about
_CHUNK_CELLS distance cells or terms beside the tables, however large
2**n is; a block is cut into slices of bins by one rule
(_bins_per_slice).
"""

import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from .bitcore import CapExceeded, check_word, word_basis, word_rank


class NotLinearError(ValueError):
    """total_equivocation_linear was given a table that is not a coset table."""


def channel_weights(p, n):
    """Vector gamma with gamma[d] = p**d * (1-p)**(n-d) for d = 0..n: the
    one-row _weight_rows."""
    return _weight_rows([p], n)[0]


def _weight_rows(grid, n):
    """The (P, n+1) matrix of channel_weights rows, one per crossover of `grid`.

    Every row is one cumulative product from the larger end: for p <= 1/2
    up from gamma[0] = q**n by the ratio p / q, for p > 1/2 down from
    gamma[n] = p**n by q / p (that row is built upward and reversed), so the
    start never underflows (it is at least 2**-n) and no ratio exceeds 1.
    The start is Python's power of the crossover read as its exact Python
    float (a float32 p is not priced in float32), and the products are taken
    in order, so a row is bit for bit the loop that multiplies gamma[d] by
    the ratio one step at a time; p = 0 and p = 1 need no case of their own
    (the ratio is 0).
    """
    grid = list(grid)
    for p in grid:
        # compared before float(): a string or other non-real still raises
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1], got %r" % (p,))
    grid = [float(p) for p in grid]
    if n < 1:
        raise ValueError("n must be positive")
    # per point, as Python computes them: the larger end's power and the
    # ratio toward the smaller end (-0.0 read as 0.0)
    high = [p > 0.5 for p in grid]
    ends = np.array([(p ** n, (1.0 - p) / p) if h else ((1.0 - p) ** n, (p + 0.0) / (1.0 - p))
                     for p, h in zip(grid, high)]).reshape(-1, 2)
    rows = np.repeat(ends[:, 1:], n + 1, axis=1)
    rows[:, 0] = ends[:, 0]
    np.cumprod(rows, axis=1, out=rows)
    if any(high):
        rows[high] = rows[high, ::-1]
    return rows


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


def _key_width(base):
    # the profile-key fit rule: the most distances w with base**w < 2**63, so
    # counts below base at w distances make one int64 key sum_d c_d base**d;
    # _types keys a profile of at most w distances whole, and _type_profiles
    # cuts longer ones into parts of w
    return next(w for w in itertools.count(1) if base ** (w + 1) >= 1 << 63)


def _bins_per_slice(block):
    # bins per slice of a (B, K, 2**l) block: about _CHUNK_CELLS words, one bin at least
    return max(1, _CHUNK_CELLS // (max(1, len(block)) * block.shape[2]))


def _histogram(dist, n):
    # (cells, n+1) profiles of a (cells, words) array of distances in 0..n:
    # row c counts cell c's words at each distance, in one bincount
    cells = dist + np.arange(0, len(dist) * (n + 1), n + 1)[:, None]
    return np.bincount(cells.ravel(), minlength=len(dist) * (n + 1)).reshape(-1, n + 1)


def _profiles(block, zs, n):
    """(cells, n+1) distance profiles of a (B, K, 2**l) block of bins of
    n-bit words: row c counts the words of cell c's bin at each distance
    from its observation, cells in the order (table, observation of zs,
    bin).  One _histogram; callers bound the block."""
    return _histogram(np.bitwise_count(block[:, None] ^ zs[:, None, None]).reshape(-1, block.shape[2]), n)


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
    otherwise.  Past _key_width distances every cell is its own group.
    Memory is a small multiple of the block's cells.
    """
    base = block.shape[2] + 1
    if n + 1 <= _key_width(base):
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


def _type_blocks(l, m):
    """The counter's blocks: the starts of its runs of type tuples, each about
    _CHUNK_CELLS terms and profile cells, over all prod_t (m_t + 1) tuples of
    a code whose generator has m_t > 0 columns of each type t in F_2**l."""
    per = max(1, _CHUNK_CELLS // max(1 << l, int(sum(m)) + 1))
    return range(0, math.prod(int(c) + 1 for c in m), per)


def _type_profiles(l, types, m):
    """The second type counter: _types at z = 0 of a coset table, from the
    types of its generator's columns alone.

    The table's bins are the cosets of C = {uG : u in F_2**l}, G an l x n
    generator with m[j] > 0 columns equal to types[j] in F_2**l (the other
    types have none, n = sum(m)).  A word y with i_t ones among the columns
    of type t lies at distance d_u(i) = sum_t (u . t odd ? m_t - i_t : i_t)
    from the word uG, and so its bin y + C has the profile c_d = #{u :
    d_u(i) = d} at z = 0; prod_t C(m_t, i_t) words y share the tuple i, and
    every bin is met once for each of its 2**l words.  So one (rows, counts)
    pair per block of _type_blocks, (G, n+1) and (1, G) floats, holds each
    distinct profile of the block's tuples, in _types' key order, and
    sum prod_t C(m_t, i_t) / 2**l over its tuples: the bins that have it.
    One block covers every tuple unless the table has more than about
    _CHUNK_CELLS terms, and then (rows, counts) is _types' at z = 0 merged by
    key.  Counts are exact integers up to n = 24, and within float64
    rounding past it.
    """
    n = int(sum(m))
    m = np.asarray(m, dtype=np.int64)
    odd = (np.bitwise_count(np.arange(1 << l)[:, None] & np.asarray(types, dtype=np.int64)) & 1).astype(np.int64)
    start = odd @ m  # d_u at i = 0: every column with u . t odd holds a one of uG
    sign = 1 - 2 * odd  # each one of y in a type-t column moves d_u by this
    radix = m + 1
    stride = np.cumprod(np.concatenate(([1], radix[:-1])))
    binomials = np.zeros((len(m), int(m.max()) + 1))
    for j, c in enumerate(m.tolist()):
        binomials[j, : c + 1] = [math.comb(c, i) for i in range(c + 1)]
    base = (1 << l) + 1
    width = _key_width(base)
    blocks = _type_blocks(l, m)
    for first in blocks:
        digits = np.arange(first, min(first + blocks.step, blocks.stop))[:, None] // stride % radix
        dist = start + digits @ sign.T
        weight = binomials[np.arange(len(m)), digits].prod(axis=1)
        profiles = _histogram(dist, n)
        # the key sum_d c_d (2**l + 1)**d in parts, the top distances last: one
        # lexsort orders the profiles as _types' keys do, however long they are
        keys = np.stack([profiles[:, d : d + width] @ base ** np.arange(min(width, n + 1 - d), dtype=np.int64)
                         for d in range(0, n + 1, width)])
        order = np.lexsort(keys)
        keys = keys[:, order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        group = np.empty(len(order), dtype=np.intp)
        group[order] = np.cumsum(new) - 1
        counts = np.bincount(group, weights=weight) / (1 << l)
        yield profiles[order[new]].astype(float), counts[None]


def _slabs(chunks, last, tables, gammas, scale, paired):
    """Grid slabs (j, bits) of one group of tables, from its (rows, counts)
    chunks, the last of which has index `last`.  counts holds one row per
    table, or one row that every one of the `tables` tables shares.  Each
    chunk's profiles are priced for a slab of weight rows x max(tables,
    profiles) values, about _CHUNK_CELLS >> 4, or one grid row; on the
    `paired` (full) route also at the reversed weight rows, and the two
    entropy terms added.  Each point's table sums are one counts @ f[i];
    several chunks add their slabs into sums held over the grid, and the
    last chunk yields bits[i], the sums over `scale`, at weight row j + i.
    """
    held = None
    for i in range(last + 1):
        # not enumerate, whose cached result tuple would keep a chunk alive
        # while the next one is gathered
        rows, counts = next(chunks)
        # paired slabs price each grid row twice: half as many rows per slab
        size = max(1, (_CHUNK_CELLS >> (4 + paired)) // max(tables, len(rows)))
        for j in range(0, len(gammas), size):
            gamma = gammas[j : j + size]
            f = objective_coefficients(rows, np.concatenate([gamma, gamma[:, ::-1]]) if paired else gamma)
            if paired:
                f = f[: len(gamma)] + f[len(gamma) :]
            sums = np.array([counts @ f_i for f_i in f])
            if last > 0:
                if held is None:
                    held = np.zeros((len(gammas), len(counts)))
                held[j : j + size] += sums
                sums = held[j : j + size]
            if i == last:
                yield j, np.broadcast_to(sums / scale, (len(sums), tables))
        del rows, counts  # freed before the next chunk is gathered


def _block_bits(block, coset, gammas, z, columns=None):
    """Grid slabs (j, bits) of a (B, 2**k, 2**l) block of valid tables, the
    route rule: tables flagged in the boolean `coset` are priced at the one
    observation z alone (at z = 0 a certified coset table's exact average,
    is_coset_table; at any z conditional_equivocation), the rest over all
    2**n observations, coset route first.  bits[i] holds a group's
    equivocations in bits, in block order, at weight row j + i (_slabs).

    `columns`, given by callers that certified the block (_certify) and
    price it at z = 0, holds each coset table's generator column types.
    The cost rule: tables whose types give the counter fewer terms,
    prod_t (m_t + 1) x 2**l, than the 2**n words of a table are counted by
    types (_type_profiles), one group per distinct column multiset, which
    all its tables share.  The other tables of a route are cut, in block
    order, into groups of max(1, _CHUNK_CELLS // (observations x 2**n))
    tables, so a group at all of its route's observations fills one chunk
    unless one table alone is wider.  A group goes to _types in chunks of
    about _CHUNK_CELLS cells: several observations of whole tables, or, when
    one observation of the tables is wider, one observation of a slice of
    their bins (_bins_per_slice).  The full route gathers only
    z < 2**(n-1): a chunk's profiles `rows` are priced as they are and as
    rows[:, ::-1], the profiles at the complements z ^ (2**n - 1)
    (rows[:, ::-1] . gamma = rows . gamma[::-1]), and the sums are divided
    by 2**n.
    """
    if not len(gammas):
        return
    n = (block.shape[1] * block.shape[2]).bit_length() - 1
    typed = np.zeros(len(block), dtype=bool)
    if columns is not None and coset.any():
        l = block.shape[2].bit_length() - 1
        at = np.flatnonzero(coset)
        # one group per distinct column multiset (rows of `columns` are sorted)
        shapes, which = (columns[at], at * 0) if len(at) == 1 else np.unique(columns[at], axis=0, return_inverse=True)
        for s, shape in enumerate(shapes):
            types, m = np.unique(shape, return_counts=True)
            blocks = _type_blocks(l, m)
            if blocks.stop << l < 1 << n:
                members = at[which.ravel() == s]
                typed[members] = True
                yield from _slabs(_type_profiles(l, types, m), len(blocks) - 1, len(members), gammas, 1, False)
    for members, origin, count, paired in ((coset & ~typed, z, 1, False), (~coset, 0, 1 << n - 1, True)):
        # a route that takes the whole block reads it uncopied, and its groups are views
        route = block if members.all() else block[members]
        stride = max(1, _CHUNK_CELLS // (count << n))
        for tables in (route[g : g + stride] for g in range(0, len(route), stride)):
            step = max(1, _CHUNK_CELLS // tables.size)
            width = _bins_per_slice(tables)
            starts = range(0, count, step)
            slices = range(0, tables.shape[1], width)
            chunks = (_types(tables[:, c : c + width],
                             np.arange(origin + start, origin + min(start + step, count), dtype=np.uint32), n)
                      for start, c in itertools.product(starts, slices))
            yield from _slabs(chunks, len(starts) * len(slices) - 1, len(tables), gammas, count << paired, paired)


def _translates(bins):
    # each bin of a (B, K, 2**l) array XORed by its first word
    return bins ^ bins[:, :, :1]


def _certify(block):
    """Per table of a (B, 2**k, 2**l) block of valid tables: is_coset_table,
    and for a coset table its generator's column types.

    Every bin's _translates must equal bin 0's, the set T, as a set:
    compared in chunks of about _CHUNK_CELLS words, vectorised over tables,
    and stopped once no table passes.  A chunk is sorted only when some
    table's bins do not list their translates in bin 0's own order (the
    family's bins all do, and equal lists are equal sets).  One
    elimination (word_basis) runs over the stack of the tables that pass:
    T is a subgroup iff its basis has l words, and those words are the
    rows of a generator G.  Returns `coset`, a boolean (B,), and
    `columns`, (B, n) ints: for a coset table the types in F_2**l of G's n
    columns, sorted, so that equal rows mean equal counts m_t (a row of
    any other table is zeros).
    """
    l = block.shape[2].bit_length() - 1
    n = (block.shape[1] << l).bit_length() - 1
    listed = _translates(block[:, :1])
    home = np.sort(listed, axis=2)
    ok = np.ones(len(block), dtype=bool)
    step = _bins_per_slice(block)
    for start in range(1, block.shape[1], step):
        if not ok.any():
            break
        moved = _translates(block[:, start : start + step])
        same = (moved == listed).all(axis=(1, 2))
        if not same[ok].all():
            moved.sort(axis=2)
            same |= (moved == home).all(axis=(1, 2))
        ok &= same
        del moved  # freed before the next chunk is translated
    columns = np.zeros((len(block), n), dtype=np.uint32)
    if not ok.any():
        return ok, columns
    basis = word_basis(home[ok, 0], n)
    passing = (basis != 0).sum(axis=1) == l
    ok[ok] = passing
    # the l basis words of each coset table are the rows of its G; column j's
    # type has bit r set when row r holds bit j
    bits = (basis[passing, :l, None] >> np.arange(n, dtype=np.uint32)) & 1
    columns[ok] = np.sort((bits << np.arange(l, dtype=np.uint32)[:, None]).sum(axis=1, dtype=np.uint32), axis=1)
    return ok, columns


def _certificate(t):
    # _certify of t alone, made at t's first use and kept on it
    if t._certificate is None:
        t._certificate = _certify(t.array[None])
    return t._certificate


def is_coset_table(t):
    """True iff the bins of t are the cosets of a subgroup of GF(2)**n.

    XOR by z then permutes the bins and preserves distances, so every
    observation has the conditional entropy of z = 0.  Exact, in O(2**n)
    time and with no buffer of 2**n entries: every bin, XORed by its first
    word, must be the set T that bin 0 gives (T holds 0), so every bin is
    a translate of T; T then is a subgroup iff its GF(2) rank is l, since
    it holds 0 and 2**l words, and the bins are its cosets.  Certified once
    per table: the verdict, and a coset table's column types, are kept on it.
    """
    return bool(_certificate(t)[0][0])


class EquivocationCurve(NamedTuple):
    """Bits per grid point; route "coset" (z = 0 alone) or "full" (all 2**n
    observations, priced as 2**(n-1) complement pairs)."""

    bits: np.ndarray
    route: str


def equivocation_curve(t, grid):
    """H(M|Z) in bits at every p of `grid`: the mean over all 2**n observations
    of conditional_equivocation (observations are equally likely).

    Values lie in [0, k]: 0 at p = 0 and p = 1, k at p = 1/2; none depends
    on the other grid points.  A certified coset table is evaluated at
    z = 0 only, from its column types when they are the cheaper count.
    """
    coset, columns = _certificate(t)
    gammas = _weight_rows(grid, t.n)
    return _curve(_block_bits(t.array[None], coset, gammas, 0, columns), len(gammas), "coset" if coset[0] else "full")


def _curve(slabs, points, route):
    # one table's curve over `points` grid points from its slabs (j, bits)
    bits = np.empty(points)
    for j, h in slabs:
        bits[j : j + len(h)] = h[:, 0]
    return EquivocationCurve(bits, route)


def ensemble_bits(blocks, n, grid):
    """Per grid point (top, total, bottom, routes) over every table of
    `blocks`, an iterable of (B, 2**k, 2**l) word arrays of valid tables of
    blocklength n: the max, the sum (extended precision where the platform
    has it) and the min of their equivocations in bits, and how many took
    each route.  Each block is certified once and handed whole to
    _block_bits, which cuts it into kernel and counter chunks; the slabs it
    yields are folded as they come.  Memory grows with neither blocks nor
    the grid.
    """
    gammas = _weight_rows(grid, n)
    top, bottom = np.full(len(gammas), -np.inf), np.full(len(gammas), np.inf)
    total = np.zeros(len(gammas), dtype=np.longdouble)
    routes = {"coset": 0, "full": 0}
    for block in blocks:
        coset, columns = _certify(block)
        routes["coset"] += int(coset.sum())
        routes["full"] += int((~coset).sum())
        for j, bits in _block_bits(block, coset, gammas, 0, columns):
            span = slice(j, j + len(bits))
            np.maximum(top[span], bits.max(axis=1), out=top[span])
            np.minimum(bottom[span], bits.min(axis=1), out=bottom[span])
            total[span] += bits.sum(axis=1, dtype=np.longdouble)
    return top, total, bottom, routes


# coset_code_curve's caps: the most counter terms, prod_t (m_t + 1) x 2**l,
# and the longest blocklength (every binomial and 2**n then stays far
# inside float64's range, and the weights lost to underflow below 2**-500)
TERM_CAP = 10**7
TYPE_N_CAP = 512


def coset_code_curve(l, counts, grid):
    """H(M|Z) in bits at every p of `grid` of the coset code whose l x n
    generator G has counts[t] columns equal to t, for each t in F_2**l: the
    bins are the 2**(n-l) cosets of G's row space, n = sum(counts).

    No table is built.  The counter (_type_profiles) gives the profiles of
    the bins at z = 0, which equivocation_curve would price for the code's
    table; they are priced as it prices them, in prod_t (counts[t] + 1) x
    2**l terms however large 2**n is.  TypeError for a count that is not an
    integer (operator.index, as for seeds and observations); ValueError
    unless counts holds 2**l nonnegative counts whose nonzero types have
    GF(2) rank l and n > l; CapExceeded past TERM_CAP terms or past
    n = TYPE_N_CAP, before any work.
    """
    if l < 0:
        raise ValueError("need l >= 0, got %d" % l)
    counts = list(counts)
    if len(counts) != 1 << l:
        raise ValueError("need 2**l = %d column counts, got %d" % (1 << l, len(counts)))
    counts = [operator.index(c) for c in counts]
    if min(counts) < 0:
        raise ValueError("column counts must be nonnegative")
    types = np.flatnonzero(counts)
    n = sum(counts)
    rank = int(word_rank(types, l))
    if rank != l or n <= l:
        raise ValueError("need n > l columns of rank l, got n = %d of rank %d" % (n, rank))
    if n > TYPE_N_CAP:
        raise CapExceeded("blocklength %d exceeds the type-count cap %d" % (n, TYPE_N_CAP))
    m = np.array(counts)[types]
    blocks = _type_blocks(l, m)
    if blocks.stop << l > TERM_CAP:
        raise CapExceeded("%d terms exceed the type-count cap %d" % (blocks.stop << l, TERM_CAP))
    gammas = _weight_rows(grid, n)
    return _curve(_slabs(_type_profiles(l, types, m), len(blocks) - 1, 1, gammas, 1, False), len(gammas), "coset")


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
    return total_equivocation(t, p)


def _bin_slices(t, z):
    # z as the kernel's one-observation array, and the slices of t's bins
    # whose profiles at z are gathered one at a time
    z = check_word(z, t.n, "observation")
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
    z = check_word(z, t.n, "observation")
    return float(next(_block_bits(t.array[None], np.ones(1, dtype=bool), _weight_rows([p], t.n), z))[1][0, 0])


def equivocation_rate(t, p):
    """total_equivocation divided by the blocklength."""
    return total_equivocation(t, p) / t.n
