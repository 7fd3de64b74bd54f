"""Random-binning baselines and classical comparison bounds.

A random binning code is a uniformly random ordered partition of all
2**n words into 2**k bins of 2**l: shuffle the words, cut the shuffle
into consecutive blocks.  Sampling is keyed per index with a
counter-based generator so sample i of a given seed is the same whether
samples are drawn serially or in parallel.
"""

import itertools
import math
import operator

import numpy as np

from .bitcore import CapExceeded, CodeTable, check_form
from .equivocation import ensemble_bits, equivocation_curve
from .lp_limit import lp_limit_curve
from .ni_code import standard_table

RNG_ALGORITHM = "philox4x64"

DEFAULT_SAMPLES = 10_000

# compare_form's caps: the largest baseline blocklength, and the most
# ordered tables it (and enumerate_binnings) enumerates
COMPARE_N_CAP = 12
ENUMERATION_LIMIT = 100_000

# most decimal digits of a table count that is formed exactly: Python's
# default limit on converting an int to text
COUNT_DIGITS_CAP = 4300

# most decimal digits of a count that table_count's text spells out
_TEXT_DIGITS = 30


def _block_size(n):
    # tables per sampled or enumerated block: about 2**16 words
    return max(1, (1 << 16) >> n)


def _sample_blocks(l, k, seed, count):
    """Samples 0..count-1 of `seed` as (B, 2**k, 2**l) word blocks.

    One philox4x64 generator is re-keyed to (seed, i) for sample i: the
    state of Philox(key=[seed, i]), whose counter and buffer start empty,
    so the streams are those of a fresh generator per sample.  The seed
    is the first key word, taken modulo 2**64 as an exact uint64; seeds
    outside [-2**63, 2**64) raise ValueError, and a form that check_form
    refuses raises, before any table is drawn.
    """
    check_form(l, k)
    seed = operator.index(seed)
    if not -(1 << 63) <= seed < 1 << 64:
        raise ValueError("seed must lie in [-2**63, 2**64), got %d" % seed)
    n = l + k
    size = _block_size(n)
    bits = np.random.Philox(key=np.array([seed % (1 << 64), 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state
    for start in range(0, count, size):
        # shuffling 0..2**n-1 in place draws what permutation(2**n) draws
        block = np.empty((min(count - start, size), 1 << n), dtype=np.uint32)
        block[:] = np.arange(1 << n, dtype=np.uint32)
        for i, row in enumerate(block, start):
            state["state"]["key"][1] = i
            bits.state = state
            rng.shuffle(row)
        yield block.reshape(-1, 1 << k, 1 << l)


def sample_binning(l, k, seed, count=1):
    """Yield `count` uniformly random tables of form (l, k).

    Sample i uses a philox4x64 generator keyed by (seed, i), so any
    sub-range of a seed's stream can be regenerated independently.  A
    form past the blocklength cap raises CapExceeded at the first draw,
    before its words are shuffled.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    for block in _sample_blocks(l, k, seed, count):
        for words in block:
            yield CodeTable(l, k, words)


def table_count(l, k, ordered=True):
    """(count, text) of the ordered tables of form (l, k), or of the binning
    codes with ordered=False: (e m)! / e!**m and m! fewer, for m = 2**k bins
    of e = 2**l words.  Sized by log-gamma first: past COUNT_DIGITS_CAP
    decimal digits count is None, so no huge factorial is ever taken.  The
    text is the count in decimal up to _TEXT_DIGITS digits and otherwise
    names only its size ("a D-digit number of")."""
    e, m = 1 << l, 1 << k
    ln = math.lgamma(e * m + 1) - m * math.lgamma(e + 1) - (0.0 if ordered else math.lgamma(m + 1))
    digits = int(ln / math.log(10)) + 1
    count = None
    if digits <= COUNT_DIGITS_CAP:
        count = binning_code_count(l, k) * (math.factorial(m) if ordered else 1)
        digits = len(str(count))
    return count, "%d" % count if digits <= _TEXT_DIGITS else "a %d-digit number of" % digits


def _enumerate_blocks(l, k):
    """Every ordered table of form (l, k) as (B, 2**k, 2**l) word blocks.

    Bins are filled left to right with every possible subset of the
    remaining words, which enumerates each ordered table exactly once:
    bin 1 varies slowest, and each bin's subsets come in
    itertools.combinations order over the remaining words, ascending.  All
    tables are built at once, one array step per bin: every partial table
    is repeated once per index combination of its remaining words, with
    the chosen words moved in front of the rest, which stay ascending.  A
    space of more than ENUMERATION_LIMIT ordered tables raises ValueError
    ("past limit") at the first draw, sized by table_count before any
    factorial is taken.
    """
    check_form(l, k)
    total, text = table_count(l, k)
    if total is None or total > ENUMERATION_LIMIT:
        raise ValueError("space has %s ordered tables, past limit %d" % (text, ENUMERATION_LIMIT))
    n = l + k
    e = 1 << l
    tables = np.arange(1 << n, dtype=np.uint32)[None]
    for filled in range(0, 1 << n, e):
        left = (1 << n) - filled
        chosen = np.array(list(itertools.combinations(range(left), e)), dtype=np.intp)
        # each combination, then the remaining indices in order: a permutation of the words left
        rest = np.ones((len(chosen), left), dtype=bool)
        rest[np.arange(len(chosen))[:, None], chosen] = False
        order = np.concatenate([chosen, np.nonzero(rest)[1].reshape(len(chosen), left - e)], axis=1)
        tables = np.concatenate([np.repeat(tables[:, None, :filled], len(order), axis=1),
                                 tables[:, filled:][:, order]], axis=2).reshape(-1, 1 << n)
    size = _block_size(n)
    for start in range(0, len(tables), size):
        yield tables[start : start + size].reshape(-1, 1 << k, e)


def enumerate_binnings(l, k):
    """All ordered uniform partitions of form (l, k), for tiny spaces: the
    tables of _enumerate_blocks in its order, each exactly once, and its
    ValueError ("past limit") at the first draw."""
    for block in _enumerate_blocks(l, k):
        for words in block:
            yield CodeTable(l, k, words)


def binning_code_count(l, k):
    """Number of distinct binning codes of form (l, k), bins unordered.

    Product over bins of C(e*i - 1, e - 1); exact big integer.  The
    ordered count is this times (2**k)!.
    """
    e = 1 << l
    if e == 1:
        return 1  # bins of one word: every factor is C(i - 1, 0) = 1
    out = 1
    for i in range(1, (1 << k) + 1):
        out *= math.comb(e * i - 1, e - 1)
    return out


def binary_entropy(p):
    """h2(p) in bits, with h2(0) = h2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def infinite_blocklength_limit(p, rate):
    """min of the secrecy capacity h2(p) and the entropy ceiling k/n."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    return min(binary_entropy(p), rate)


def compare_form(l, k, p_grid, samples=DEFAULT_SAMPLES, seed=0, exhaustive=False):
    """Comparison record for one form over a crossover grid.

    For each p the record row holds the family's rate, the LP limit,
    the infinite-blocklength bound, and the max, mean and min rate over
    the baseline codes.  With exhaustive=True the baseline is every
    ordered table of the form instead of a random sample, which is only
    feasible for very small shapes.  The record also carries the LP's
    solver counters (`lp`) and how many baseline tables took each
    equivocation route (`routes`).  CapExceeded, before the LP is built,
    past n = COMPARE_N_CAP or, with exhaustive=True, past
    ENUMERATION_LIMIT ordered tables.
    """
    n = l + k
    if n > COMPARE_N_CAP:
        raise CapExceeded("baseline blocklength %d exceeds cap %d" % (n, COMPARE_N_CAP))
    if not exhaustive and samples < 1:
        raise ValueError("samples must be >= 1")
    if exhaustive:
        total, text = table_count(l, k)
        if total is None or total > ENUMERATION_LIMIT:
            raise CapExceeded("form (%d,%d) has %s ordered tables, exhaustive baseline exceeds cap %d"
                              % (l, k, text, ENUMERATION_LIMIT))
    grid = [float(p) for p in p_grid]
    # the LP first: a form past its row cap fails before any sampling
    limits = lp_limit_curve(l, k, grid)
    ni = equivocation_curve(standard_table(l, k), grid).bits / n
    # the baseline streams through in blocks, folded as it goes
    blocks = _enumerate_blocks(l, k) if exhaustive else _sample_blocks(l, k, seed, samples)
    top, total, bottom, routes = ensemble_bits(blocks, n, grid)
    count = routes["coset"] + routes["full"]
    rows = [
        {"p": p, "ni_rate": float(ni_p), "lp_limit": float(limit),
         "inf_limit": infinite_blocklength_limit(p, k / n), "rand_max": float(hi),
         "rand_mean": float(mean), "rand_min": float(lo)}
        for p, ni_p, limit, hi, mean, lo in zip(grid, ni, limits.rates, top / n, total / n / count, bottom / n)
    ]
    return {
        "form": (l, k),
        "samples": count,
        "seed": None if exhaustive else seed,
        "algorithm": None if exhaustive else RNG_ALGORITHM,
        "exhaustive": bool(exhaustive),
        "rows": rows,
        "lp": limits.stats(),
        "routes": routes,
    }
