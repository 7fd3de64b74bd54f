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
from .equivocation import _curve, _weight_rows, is_coset_table
from .lp_limit import lp_limit_curve
from .ni_code import standard_table

RNG_ALGORITHM = "philox4x64"

DEFAULT_SAMPLES = 10_000


def sample_binning(l, k, seed, count=1):
    """Yield `count` uniformly random tables of form (l, k).

    Sample i uses a philox4x64 generator keyed by (seed, i), so any
    sub-range of a seed's stream can be regenerated independently.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = l + k
    e = 1 << l
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        yield CodeTable(l, k, rng.permutation(1 << n).reshape(1 << k, e))


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


def compare_form(l, k, p_grid, samples=DEFAULT_SAMPLES, seed=0, exhaustive=False):
    """Comparison record for one form over a crossover grid.

    For each p the record row holds the family's rate, the LP limit,
    the infinite-blocklength bound, and the max, mean and min rate over
    the baseline codes.  With exhaustive=True the baseline is every
    ordered table of the form instead of a random sample, which is only
    feasible for very small shapes.
    """
    n = l + k
    if n > 12:
        raise ValueError("exhaustive equivocation past n = 12 is not supported here")
    baseline = enumerate_binnings(l, k) if exhaustive else sample_binning(l, k, seed, samples)
    grid = [float(p) for p in p_grid]
    # one weight matrix for the grid; one curve per table, streamed into
    # running max, sum and min vectors (the sum in extended precision where
    # the platform has it), so memory does not grow with samples
    gammas = _weight_rows(grid, n)
    family = standard_table(l, k)
    ni = _curve(family, gammas, is_coset_table(family)).bits / n
    top, bottom = np.full(len(grid), -np.inf), np.full(len(grid), np.inf)
    total = np.zeros(len(grid), dtype=np.longdouble)
    for count, t in enumerate(baseline, 1):
        rates = _curve(t, gammas, is_coset_table(t)).bits / n
        np.maximum(top, rates, out=top)
        np.minimum(bottom, rates, out=bottom)
        total += rates
    limits = lp_limit_curve(l, k, grid).rates
    rows = [
        {"p": p, "ni_rate": float(ni_p), "lp_limit": float(limit),
         "inf_limit": infinite_blocklength_limit(p, k / n), "rand_max": float(hi),
         "rand_mean": float(sum_p / count), "rand_min": float(lo)}
        for p, ni_p, limit, hi, sum_p, lo in zip(grid, ni, limits, top, total, bottom)
    ]
    return {
        "form": (l, k),
        "samples": count,
        "seed": None if exhaustive else seed,
        "algorithm": None if exhaustive else RNG_ALGORITHM,
        "exhaustive": bool(exhaustive),
        "rows": rows,
    }
