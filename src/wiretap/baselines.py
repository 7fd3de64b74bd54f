"""Random-binning baselines and classical comparison bounds.

A random binning code is a uniformly random ordered partition of all
2**n words into 2**k bins of 2**l: shuffle the words, cut the shuffle
into consecutive blocks.  Sampling is keyed per index with a
counter-based generator so sample i of a given seed is the same whether
samples are drawn serially or in parallel.
"""

import itertools
import math

import numpy as np

from .bitcore import CodeTable
from .equivocation import _CHUNK_CELLS, _block_bits, _coset_mask, _weight_rows, equivocation_curve
from .lp_limit import lp_limit_curve
from .ni_code import standard_table

RNG_ALGORITHM = "philox4x64"

DEFAULT_SAMPLES = 10_000


def _block_size(n):
    # tables per block: one full-route kernel call of about _CHUNK_CELLS cells
    return max(1, _CHUNK_CELLS >> 2 * n)


def _sample_blocks(l, k, seed, count):
    """Samples 0..count-1 of `seed` as (B, 2**k, 2**l) word blocks.

    One philox4x64 generator is re-keyed to (seed, i) for sample i: the
    state of Philox(key=[seed, i]), whose counter and buffer start empty,
    so the streams are those of a fresh generator per sample.  The first
    construction converts the seed exactly as every such key does.
    """
    n = l + k
    size = _block_size(n)
    bits = np.random.Philox(key=[seed, 0])
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
    sub-range of a seed's stream can be regenerated independently.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    for block in _sample_blocks(l, k, seed, count):
        for words in block:
            yield CodeTable(l, k, words)


def enumerate_binnings(l, k, limit=100_000):
    """All ordered uniform partitions of form (l, k), for tiny spaces.

    Bins are filled left to right with every possible subset of the
    remaining words, which enumerates each ordered table exactly once.
    """
    n = l + k
    e = 1 << l
    total = math.factorial(1 << n) // math.factorial(e) ** (1 << k)
    if total > limit:
        raise ValueError("space has %d ordered tables, past limit %d" % (total, limit))

    def fill(remaining):
        if not remaining:
            yield []
            return
        rest = list(remaining)
        for combo in itertools.combinations(rest, e):
            left = [w for w in rest if w not in set(combo)]
            for tail in fill(left):
                yield [list(combo)] + tail

    for bins in fill(list(range(1 << n))):
        yield CodeTable(l, k, bins)


def binning_code_count(l, k):
    """Number of distinct binning codes of form (l, k), bins unordered.

    Product over bins of C(e*i - 1, e - 1); exact big integer.  The
    ordered count is this times (2**k)!.
    """
    e = 1 << l
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


def _baseline_blocks(l, k, samples, seed, exhaustive):
    if not exhaustive:
        yield from _sample_blocks(l, k, seed, samples)
        return
    tables = enumerate_binnings(l, k)
    while block := [t.array for t in itertools.islice(tables, _block_size(l + k))]:
        yield np.stack(block)


def compare_form(l, k, p_grid, samples=DEFAULT_SAMPLES, seed=0, exhaustive=False):
    """Comparison record for one form over a crossover grid.

    For each p the record row holds the family's rate, the LP limit,
    the infinite-blocklength bound, and the max, mean and min rate over
    the baseline codes.  With exhaustive=True the baseline is every
    ordered table of the form instead of a random sample, which is only
    feasible for very small shapes.  The record also carries the LP's
    solver counters (`lp`) and how many baseline tables took each
    equivocation route (`routes`).
    """
    n = l + k
    if n > 12:
        raise ValueError("exhaustive equivocation past n = 12 is not supported here")
    if not exhaustive and samples < 1:
        raise ValueError("samples must be >= 1")
    grid = [float(p) for p in p_grid]
    gammas = _weight_rows(grid, n)
    ni = equivocation_curve(standard_table(l, k), grid).bits / n
    # the baseline streams through in blocks, each certified once and
    # priced by _block_bits, whose grid slabs of rates fold into running
    # max, sum and min vectors (the sum in extended precision where the
    # platform has it), so memory does not grow with samples or the grid
    top, bottom = np.full(len(grid), -np.inf), np.full(len(grid), np.inf)
    total = np.zeros(len(grid), dtype=np.longdouble)
    routes = {"coset": 0, "full": 0}
    for block in _baseline_blocks(l, k, samples, seed, exhaustive):
        coset = _coset_mask(block)
        routes["coset"] += int(coset.sum())
        routes["full"] += int((~coset).sum())
        for j, bits in _block_bits(block, coset, gammas):
            rates = bits / n
            span = slice(j, j + len(rates))
            np.maximum(top[span], rates.max(axis=1), out=top[span])
            np.minimum(bottom[span], rates.min(axis=1), out=bottom[span])
            total[span] += rates.sum(axis=1, dtype=np.longdouble)
    count = routes["coset"] + routes["full"]
    limits = lp_limit_curve(l, k, grid)
    rows = [
        {"p": p, "ni_rate": float(ni_p), "lp_limit": float(limit),
         "inf_limit": infinite_blocklength_limit(p, k / n), "rand_max": float(hi),
         "rand_mean": float(sum_p / count), "rand_min": float(lo)}
        for p, ni_p, limit, hi, sum_p, lo in zip(grid, ni, limits.rates, top, total, bottom)
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
