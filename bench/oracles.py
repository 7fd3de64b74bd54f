"""Computations made apart from the program, used to check its outputs.

Nothing here imports ``wiretap``.  Each function restates a quantity from
its definition: the BSC likelihoods, the bin posteriors, the LP over
distance-count rows (solved by scipy's HiGHS), the keyed random binning,
and the family's growth recursion.  The ``check_*`` functions return a
list of problems; an empty list means the output passed.
"""

import itertools
import math

import numpy as np

# With its default tolerances HiGHS stops short of the (4,1) optimum by up
# to 1.8e-8 bits; at 1e-10 its primal and dual bounds stay within 1.1e-8.
HIGHS_TOL = 1e-10


def gammas(p, n):
    """gamma[d] = p**d (1-p)**(n-d), d = 0..n (0**0 = 1)."""
    d = np.arange(n + 1)
    return np.float64(p) ** d * np.float64(1.0 - p) ** (n - d)


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def close12(out, ref, slack):
    """True when `out` is `ref` rounded to 12 significant digits, up to slack."""
    if ref == 0.0:
        return abs(out) <= slack
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - 11)
    return abs(out - ref) <= 0.5 * unit + slack


def _entropy_rows(post):
    """Entropy in bits of each posterior row (last axis), normalising first."""
    post = post / post.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(post > 0.0, -post * np.log2(post), 0.0)
    return terms.sum(axis=-1)


def distance_counts(bins, n, zs):
    """counts[..., z, bin, d]: words of each bin at distance d from each z.

    `bins` is a (..., B, e) integer array of words; `zs` a 1-D array.
    """
    words = np.asarray(bins, dtype=np.uint32)
    dist = np.bitwise_count(words[..., None, :, :] ^ np.asarray(zs, dtype=np.uint32)[:, None, None])
    return (dist[..., None] == np.arange(n + 1, dtype=np.uint8)).sum(axis=-2, dtype=np.int64)


def equivocation_full(bins, n, ps):
    """H(M|Z) in bits at each p, averaging over every observation z.

    `bins` may carry leading axes (one table per leading index); the
    result then has shape (..., len(ps)).
    """
    counts = distance_counts(bins, n, np.arange(1 << n)).astype(float)
    out = [_entropy_rows(counts @ gammas(p, n)).mean(axis=-1) for p in ps]
    return np.stack(out, axis=-1)


def equivocation_z0(bins, n, p):
    """H(M|Z=0) in bits: the whole equivocation when the table is a coset table."""
    counts = distance_counts(bins, n, np.zeros(1, dtype=np.uint32))[..., 0, :, :]
    return float(_entropy_rows(counts.astype(float) @ gammas(p, n)))


def partition_problems(bins, l, k):
    """Problems that keep `bins` from being 2**k bins of 2**l words covering 2**n once."""
    n = l + k
    if len(bins) != 1 << k or any(len(b) != 1 << l for b in bins):
        return ["expected %d bins of %d words" % (1 << k, 1 << l)]
    words = np.sort(np.asarray(bins, dtype=np.int64).ravel())
    if not np.array_equal(words, np.arange(1 << n)):
        return ["the bins do not cover the %d words of length %d exactly once" % (1 << n, n)]
    return []


def coset_problems(bins):
    """Bin 0 must be closed under XOR and every bin equal its first word xor bin 0."""
    arr = np.asarray(bins, dtype=np.int64)
    b0 = np.sort(arr[0])
    if not np.isin(arr[0][:, None] ^ arr[0][None, :], b0).all():
        return ["bin 0 is not closed under XOR"]
    shifted = np.sort(arr ^ arr[:, :1], axis=1)
    bad = np.nonzero((shifted != b0[None, :]).any(axis=1))[0]
    if bad.size:
        return ["bin %d is not its first word xor bin 0" % int(bad[0])]
    return []


def parse_table_text(text):
    """(l, k, bins) from the table text format: header 'l k', one bin per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    l, k = (int(v) for v in lines[0].split())
    return l, k, [[int(tok, 2) for tok in ln.split()] for ln in lines[1:]]


def family_table(l, k):
    """The family member of form (l, k) by its documented standard path.

    From bins [0] and [1] (form (0, 1)): RAHBA l times, then RASBA k - 1
    times.  RAHBA takes bins in consecutive pairs (B, C) and replaces them
    by [B||0, C||1] and [B||1, C||0]; RASBA splits each bin into a child
    appending 0, 1, 0, ... and a child appending 1, 0, 1, ...
    """
    bins = np.array([[0], [1]], dtype=np.int64)
    for _ in range(l):
        b, c = bins[0::2] << 1, bins[1::2] << 1
        out = np.empty((bins.shape[0], 2 * bins.shape[1]), dtype=np.int64)
        out[0::2] = np.hstack([b, c | 1])
        out[1::2] = np.hstack([b | 1, c])
        bins = out
    for _ in range(k - 1):
        alt = np.arange(bins.shape[1]) % 2
        out = np.empty((2 * bins.shape[0], bins.shape[1]), dtype=np.int64)
        out[0::2] = bins << 1 | alt
        out[1::2] = bins << 1 | (1 - alt)
        bins = out
    return bins


def keyed_binnings(l, k, seed, count):
    """The documented sampler: Philox(key=[seed, i]) permutes 2**n words, cut into bins."""
    import numpy.random as npr

    n, e = l + k, 1 << l
    out = np.empty((count, 1 << k, e), dtype=np.int64)
    for i in range(count):
        out[i] = npr.Generator(npr.Philox(key=[seed, i])).permutation(1 << n).reshape(1 << k, e)
    return out


def random_rate_stats(l, k, seed, samples, ps, chunk=1000):
    """Max, mean and min rate over the keyed sample at each p, as three lists."""
    tables = keyed_binnings(l, k, seed, samples)
    n = l + k
    parts = [equivocation_full(tables[i : i + chunk], n, ps) for i in range(0, samples, chunk)]
    rates = np.concatenate(parts) / n
    return rates.max(axis=0).tolist(), rates.mean(axis=0).tolist(), rates.min(axis=0).tolist()


def direct(fn, *args):
    """Call fn(*args); the worker passes a memoising stand-in so rounds share results."""
    return fn(*args)


def lp_bracket_highs(l, k, p):
    """Bounds (lower, upper) in bits on the LP optimum for form (l, k) at p.

    Rows are the weak compositions of e = 2**l into n + 1 parts, listed by
    stars and bars; the columns of A must sum to the binomial profile.
    HiGHS's primal objective is the lower bound.  Its equality duals y,
    raised by the largest violation d of A'y >= f, are dual feasible
    because every row sums to e, so b.y + d * 2**n / e bounds from above.
    """
    from scipy.optimize import linprog

    n, e = l + k, 1 << l
    rows = []
    for bars in itertools.combinations(range(e + n), n):
        edges = (-1,) + bars + (e + n,)
        rows.append([edges[j + 1] - edges[j] - 1 for j in range(n + 1)])
    rows = np.array(rows, dtype=float)
    P = rows @ gammas(p, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(P > 0.0, -P * np.log2(P), 0.0)
    b = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
    res = linprog(
        -f, A_eq=rows.T, b_eq=b, bounds=(0, None), method="highs-ipm",
        options={"primal_feasibility_tolerance": HIGHS_TOL, "dual_feasibility_tolerance": HIGHS_TOL},
    )
    if res.status != 0:
        raise RuntimeError("HiGHS did not solve the (%d,%d) LP at p=%r: %s" % (l, k, p, res.message))
    y = -res.eqlin.marginals
    violation = max(0.0, float((f - rows @ y).max()))
    return float(f @ res.x), float(b @ y + violation * (1 << n) / e)


def _lp_problems(p, rate, n, bracket):
    """The output rate must lie within the HiGHS bracket, up to its 12-digit rounding."""
    lower, upper = bracket
    if upper - lower > 1e-7:
        return ["p=%r: HiGHS bracket [%r, %r] too wide to check against" % (p, lower, upper)]
    slack = 0.5 * 10.0 ** (math.floor(math.log10(max(abs(rate), 1e-300))) - 11) + 1e-13
    if not lower / n - slack <= rate <= upper / n + slack:
        return ["p=%r: rate %r outside the HiGHS bracket [%r, %r]" % (p, rate, lower / n, upper / n)]
    return []


def read_csv(text):
    """(header, rows) of the program's CSV output, floats as written."""
    lines = text.splitlines()
    if not lines or lines[0] != "#schema=1":
        raise ValueError("missing the #schema=1 line")
    return lines[1].split(","), [[float(v) for v in ln.split(",")] for ln in lines[2:] if ln]


def _grid_problems(rows, grid):
    if len(rows) != len(grid):
        return ["%d rows for a %d-point grid" % (len(rows), len(grid))]
    bad = [r[0] for r, p in zip(rows, grid) if not close12(r[0], p, 0.0)]
    return ["p column differs from the grid at %r" % bad[0]] if bad else []


def check_limit_curve(csv_text, l, k, grid, memo=direct):
    """The `limit` curve against HiGHS, its endpoints and the family's rate."""
    n = l + k
    header, rows = read_csv(csv_text)
    if header != ["p", "lp_limit_rate"]:
        return ["unexpected header %r" % header]
    problems = _grid_problems(rows, grid)
    if problems:
        return problems
    family = equivocation_full(family_table(l, k), n, grid) / n
    for (p, rate), fam in zip(rows, family):
        problems += _lp_problems(p, rate, n, memo(lp_bracket_highs, l, k, p))
        if rate < fam - 1e-12:
            problems.append("p=%r: rate %r below the family's %r" % (p, rate, fam))
    if rows[0][0] == 0.0 and rows[0][1] != 0.0:
        problems.append("rate at p=0 is %r, not 0" % rows[0][1])
    if rows[-1][0] == 0.5 and abs(rows[-1][1] - k / n) > 1e-12:
        problems.append("rate at p=1/2 is %r, not k/n" % rows[-1][1])
    return problems


def check_table_file(text, l, k):
    """The table file is a form-(l, k) partition and a coset table."""
    fl, fk, bins = parse_table_text(text)
    if (fl, fk) != (l, k):
        return ["header says (%d,%d), expected (%d,%d)" % (fl, fk, l, k)]
    return partition_problems(bins, l, k) or coset_problems(bins)


def check_table_curve(table_text, csv_text, grid):
    """`equivocation` rows against H(M|Z=0) of the coset table, and the endpoints."""
    l, k, bins = parse_table_text(table_text)
    n = l + k
    header, rows = read_csv(csv_text)
    if header != ["p", "equivocation_bits", "equivocation_rate"]:
        return ["unexpected header %r" % header]
    problems = _grid_problems(rows, grid)
    if problems:
        return problems
    for p, bits, rate in rows:
        ref = equivocation_z0(bins, n, p)
        if not (close12(bits, ref, 1e-12) and close12(rate, ref / n, 1e-13)):
            problems.append("p=%r: output %r bits, %r rate; H(M|Z=0) = %r" % (p, bits, rate, ref))
    if rows[0][0] == 0.0 and rows[0][1] != 0.0:
        problems.append("H at p=0 is %r, not 0" % rows[0][1])
    if rows[-1][0] == 0.5 and abs(rows[-1][1] - k) > 1e-11:
        problems.append("H at p=1/2 is %r, not k=%d" % (rows[-1][1], k))
    return problems


def check_random_race(csv_text, l, k, grid, samples, seed, memo=direct):
    """`compare` rows against regenerated samples, the family, HiGHS and h2."""
    n = l + k
    header, rows = read_csv(csv_text)
    want = ["p", "ni_rate", "lp_limit", "inf_limit", "rand_max", "rand_mean", "rand_min"]
    if header != want:
        return ["unexpected header %r" % header]
    problems = _grid_problems(rows, grid)
    if problems:
        return problems
    rand_max, rand_mean, rand_min = memo(random_rate_stats, l, k, seed, samples, grid)
    family = equivocation_full(family_table(l, k), n, grid) / n
    for j, (p, ni, lp, inf, rmax, rmean, rmin) in enumerate(rows):
        refs = {
            "ni_rate": (ni, family[j]),
            "inf_limit": (inf, min(h2(p), k / n)),
            "rand_max": (rmax, rand_max[j]),
            "rand_mean": (rmean, rand_mean[j]),
            "rand_min": (rmin, rand_min[j]),
        }
        for name, (got, ref) in refs.items():
            if not close12(got, ref, 1e-13):
                problems.append("p=%r: %s %r, expected %r" % (p, name, got, ref))
        problems += _lp_problems(p, lp, n, memo(lp_bracket_highs, l, k, p))
        if max(ni, rmax, rmean, rmin) > lp + 1e-12:
            problems.append("p=%r: a rate exceeds lp_limit %r" % (p, lp))
    return problems
