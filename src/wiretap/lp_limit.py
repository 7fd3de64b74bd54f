"""Finite-blocklength equivocation limit via linear programming.

For one eavesdropper observation, a binning code of blocklength n and bin
size e contributes, per bin, a distance-count row r (a weak composition
of e into n+1 parts).  Whatever the code, the 2**k chosen rows must add
up column-wise to the binomial profile b[j] = C(n, j), because the bins
partition the space.  Relaxing "rows of an actual code" to "any
nonnegative combination of candidate rows" gives a linear program whose
optimum upper-bounds the total equivocation of every uniform binning
code of that shape:

    maximize    f . x        f_i = -P_i log2 P_i,  P_i = r_i . gamma
    subject to  A x = b,     column i of A is candidate row r_i
                x >= 0

The optimum sits at a vertex, so the solver below is a dense one-phase
primal simplex; no external solver is involved.  It starts at the
pure-row vertex (all e words of a bin at one distance d, C(n, d) / e
such bins): B = e*I, x_B = b / e >= 0.  Only f depends on the crossover
p, so a curve is one sweep: the rows, A and b are built once, and each
interior grid point (LpCurve sets the endpoints) starts from the previous
point's optimal basis, which stays feasible.

Pricing is Dantzig's rule (largest reduced cost, lowest index on ties);
after 50 consecutive degenerate pivots it falls back to Bland's rule
(smallest eligible index) until the objective moves again, which keeps
the termination guarantee.  A column enters only when its reduced cost
exceeds PRICE_TOL = 1e-12; the ratio test and zero detection use
TOL = 1e-10.  Pricing at 1e-10 would stop up to about 6e-11 bits short
of the optimum, e.g. at p = 0.05 for the forms (4,1) and (3,2).
A is held row-major, (n+1, N) C-contiguous, so the pricing pass y @ A
reads n+1 contiguous rows, and every pass of a solve writes its reduced
costs into one reused N-length buffer.

Every solution carries a dual certificate.  With y from the final basis
and d = max(0, max(f - A^T y)), every feasible x has sum(x) = 2**n / e
(each row sums to e), so f . x = y . A x + (f - A^T y) . x is at most
upper = b . y + d * 2**n / e.  The gap upper - objective bounds how far
the returned value can sit below the true optimum.  d comes from the
pricing pass that ends the solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bitcore import CapExceeded, check_form
from .equivocation import _weight_rows, channel_weights, objective_coefficients

ROW_CAP = 10_000_000

# ratio test and zero detection
TOL = 1e-10

# a column enters only when its reduced cost is above this
PRICE_TOL = 1e-12

# consecutive degenerate pivots before Dantzig pricing yields to Bland's
_DEGENERATE_RUN = 50

_MAX_PIVOTS = 100_000


class SimplexError(RuntimeError):
    """No pure-row start, or a numerical failure (singular basis, guard trip)."""


class CountMismatch(RuntimeError):
    """The two candidate-row counting formulas disagreed; implementation bug."""


def enumerate_rows(n, e):
    """All weak compositions of e into n+1 parts, colexicographically.

    Returns an (N, n+1) float array with N = C(e+n, e): the transposed
    view of a C-contiguous (n+1, N) buffer.  Its entries are integers of
    at most e, exact in float64, and the buffer is the LP's row-major
    constraint matrix without a second copy.  Raises CapExceeded before
    materializing anything when N is past ROW_CAP.
    """
    if n < 1 or e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    count = math.comb(e + n, e)
    if count > ROW_CAP:
        raise CapExceeded("candidate row count N = %d exceeds cap %d" % (count, ROW_CAP))
    # A row r is fixed by its suffix sums s_t = r[n-t] + ... + r[n],
    # t = 0..n-1, and colexicographic order on rows is lexicographic
    # order on the nondecreasing sequences (s_0, ..., s_{n-1}) in [0, e].
    # Column t of that list repeats the last entry of each length-(t+1)
    # prefix once per completion; a prefix ending in v has the children
    # v, v+1, ..., e.  Every level and every difference step is one
    # contiguous row of the (n+1, N) buffer; only it and O(N) scratch
    # are live.
    cols = np.empty((n + 1, count))
    last = np.arange(e + 1, dtype=np.int64)
    for t in range(n):
        if t:
            counts = e + 1 - last
            # child i of the whole level has value i - (first child index - v)
            shift = np.repeat(np.cumsum(counts) - counts - last, counts)
            last = np.arange(shift.size, dtype=np.int64)
            last -= shift
            del shift
        tail = n - 1 - t
        completions = np.array([math.comb(v + tail, tail) for v in range(e + 1)])
        cols[n - t] = np.repeat(last, completions[e - last])
    # suffix sums to entries, left to right so each step reads an unchanged s
    np.subtract(e, cols[1], out=cols[0])
    for j in range(1, n):
        cols[j] -= cols[j + 1]
    return cols.T


def _nested(colors, rem):
    # "fill r identical slots from c colors, none mandatory", for every
    # c <= colors and r <= rem: the first layer picks j colors that appear
    # at least once, then the remaining r - j slots reduce to the same
    # problem with j colors, so table[c][r] needs only smaller r.  An
    # empty-range sum (r = 0) counts as 1.
    table = [[1] + [0] * rem for _ in range(colors + 1)]
    for r in range(1, rem + 1):
        for c in range(1, colors + 1):
            table[c][r] = sum(math.comb(c, j) * table[j][r - j] for j in range(1, min(c, r) + 1))
    return table


def appendix_count(n, e):
    """Candidate-row count by two independent closed routes.

    Evaluates the nested-sum recursion and the single sum
    sum_i C(n+1, i) * C(e-1, i-1), i up to min(e, n+1), and returns the
    common value.  A disagreement means a transcription bug, so it
    raises instead of guessing.
    """
    if n < 1 or e < 1:
        raise ValueError("need n >= 1 and e >= 1")
    delta = min(e, n + 1)
    table = _nested(n + 1, e)
    nested = sum(math.comb(n + 1, i) * table[i][e - i] for i in range(1, delta + 1))
    direct = sum(math.comb(n + 1, i) * math.comb(e - 1, i - 1) for i in range(1, delta + 1))
    if nested != direct:
        raise CountMismatch("row-count formulas disagree: %d vs %d" % (nested, direct))
    return nested


@dataclass
class LpInstance:
    n: int
    e: int
    f: np.ndarray      # objective coefficients, length N
    A: np.ndarray      # (n+1, N) constraint matrix, column i = candidate row i
    b: np.ndarray      # binomial right-hand side, length n+1


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float
    basis: list
    selected: list     # [(row tuple, multiplicity)] for x_i > 0
    upper: float       # dual bound: no feasible point scores above it
    pivots_phase2: int  # every pivot of the one-phase simplex (name kept: a pinned JSON key)
    bland_fallbacks: int


@dataclass
class LpCurve:
    """LP optimum over a crossover grid, in the grid's order.

    The endpoint convention: p = 0 and p = 1 are not solved.  There the
    observation pins the codeword, and their bits and upper are 0, which
    is also the LP optimum, certified by y = 0 (a unit gamma makes every
    P_i an integer, so every f_i <= 0).  Their basis is None and they add
    no pivots.
    """

    n: int
    grid: list
    bits: np.ndarray     # LP optimum per point
    upper: np.ndarray    # dual bound per point
    bases: list          # optimal basis per point, sorted column indices
    candidate_rows: int
    pivots_phase2: list  # per point, every pivot of its one-phase solve (LpSolution)
    bland_fallbacks: int

    @property
    def rates(self):
        return self.bits / self.n

    def stats(self):
        """Solver counters as plain JSON-ready values."""
        return {
            "candidate_rows": self.candidate_rows,
            "pivots_phase2": list(self.pivots_phase2),
            "bland_fallbacks": self.bland_fallbacks,
            "max_dual_gap": float(np.max(self.upper - self.bits, initial=0.0)),
        }


def _check_lp_form(n, e):
    # the LP form rule: e = 2**l for an integer l, then check_form(l, n - l)
    l = e.bit_length() - 1
    if e < 1 or e != 1 << l:
        raise ValueError("bin size e must be a power of two, got %d" % e)
    check_form(l, n - l)


def build_lp(n, e, p):
    """Assemble the LP for blocklength n, bin size e, crossover p.

    The door rule, before p is read or a row enumerated: ValueError unless
    e = 2**l, then check_form(l, n - l), as every LP door applies it.
    """
    _check_lp_form(n, e)
    gamma = channel_weights(p, n)
    # the candidate rows are held once, as the columns of A: the row-major
    # (n+1, N) buffer they were enumerated into, which pricing streams
    A = enumerate_rows(n, e).T
    f = objective_coefficients(A.T, gamma)
    b = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
    return LpInstance(n=n, e=e, f=f, A=A, b=b)


def _pivot_loop(A, b, c, basis):
    """Maximize c.x from the feasible `basis`, which is updated in place.

    Dense iteration that refactors the basis every step.  Returns
    (xb, y, slack, pivots, fallbacks): the basic values, the duals,
    max(0, max(c - yA)) over all columns from the final pricing pass,
    the pivot count and the number of switches from Dantzig to Bland
    pricing.  Ties in the ratio test leave on the smallest basic column.
    """
    degenerate = fallbacks = 0
    # the reduced costs c - yA, priced into one buffer for the whole solve
    rc = np.empty(A.shape[1])
    for pivots in range(_MAX_PIVOTS):
        B = A[:, basis]
        try:
            xb = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError:
            raise SimplexError("singular working basis")
        np.matmul(y, A, out=rc)
        np.subtract(c, rc, out=rc)
        basic = rc[basis]
        rc[basis] = 0.0
        enter = int(np.argmax(rc))
        if rc[enter] <= PRICE_TOL:
            # the basic entries were zeroed, so rc[enter] >= 0
            return xb, y, max(float(rc[enter]), float(basic.max())), pivots, fallbacks
        if degenerate >= _DEGENERATE_RUN:
            enter = int(np.argmax(rc > PRICE_TOL))
        d = np.linalg.solve(B, A[:, enter])
        pos = np.nonzero(d > TOL)[0]
        if pos.size == 0:
            raise SimplexError("unbounded direction; instance is malformed")
        ratios = xb[pos] / d[pos]
        best = ratios.min()
        ties = pos[ratios <= best + TOL]
        leave_row = min(ties, key=lambda r: basis[r])
        basis[leave_row] = enter
        if best > TOL:
            degenerate = 0
        else:
            degenerate += 1
            fallbacks += degenerate == _DEGENERATE_RUN
    raise SimplexError("pivot guard tripped after %d iterations" % _MAX_PIVOTS)


def _pure_basis(n, e):
    """Columns of e*u_0, ..., e*u_n: in colexicographic order e*u_d is
    the last of the C(e+d, d) rows that are zero past position d."""
    return [math.comb(e + d, d) - 1 for d in range(n + 1)]


def solve_lp(inst, basis=None):
    """Optimal vertex of the instance; deterministic for a fixed input.

    `basis` is a feasible starting basis, such as the optimal basis of
    the same form at another p (A and b do not depend on p); without it
    the solve starts at the pure-row vertex, or raises SimplexError if A
    lacks those columns.  The returned multiplicities are those of an
    optimal basic feasible solution: at most n+1 of them are positive
    and each is integral up to roundoff, because the vertices of this
    polytope are integer.  The instance meets build_lp's door rule before any pivot.
    """
    _check_lp_form(inst.n, inst.e)
    A, b, f = inst.A, inst.b, inst.f
    if basis is None:
        basis = _pure_basis(inst.n, inst.e)
        if basis[-1] >= A.shape[1] or not np.array_equal(A[:, basis], inst.e * np.eye(len(basis))):
            raise SimplexError("instance lacks the pure-row columns e*u_d; no starting vertex")
    else:
        basis = list(basis)
    xb, y, slack, pivots, fallbacks = _pivot_loop(A, b, f, basis)
    x = np.zeros(A.shape[1])
    x[basis] = xb
    selected = [
        (tuple(int(v) for v in A[:, i]), float(x[i]))
        for i in np.nonzero(x > 1e-9)[0]
    ]
    return LpSolution(
        x=x,
        objective=float(f[basis] @ xb),
        basis=sorted(basis),
        selected=selected,
        upper=float(b @ y) + slack * float(b.sum()) / inst.e,
        pivots_phase2=pivots,
        bland_fallbacks=fallbacks,
    )


def lp_limit_curve(l, k, grid):
    """LP optimum in bits for form (l, k) at every p of `grid`.

    The curve is allocated at the endpoint values (LpCurve), and each
    interior point, in grid order, is solved once into its slot: priced
    from its row of the grid's weights, which check every p first, and
    started from the previous point's basis (the pure-row vertex at the
    first).  The form is checked first (check_form: CapExceeded past the
    blocklength cap, where the solver's tolerances are not proved to hold);
    rows are enumerated, and the row cap checked, only if some p lies
    strictly inside (0, 1).
    """
    check_form(l, k)
    grid = [float(p) for p in grid]
    n, e = l + k, 1 << l
    gammas = _weight_rows(grid, n)
    curve = LpCurve(n=n, grid=grid, bits=np.zeros(len(grid)), upper=np.zeros(len(grid)),
                    bases=[None] * len(grid), candidate_rows=math.comb(e + n, e),
                    pivots_phase2=[0] * len(grid), bland_fallbacks=0)
    inside = [i for i, p in enumerate(grid) if 0.0 < p < 1.0]
    inst = build_lp(n, e, grid[inside[0]]) if inside else None
    basis = None
    for i in inside:
        inst.f = objective_coefficients(inst.A.T, gammas[i])
        sol = solve_lp(inst, basis)
        basis = curve.bases[i] = sol.basis
        curve.bits[i], curve.upper[i], curve.pivots_phase2[i] = sol.objective, sol.upper, sol.pivots_phase2
        curve.bland_fallbacks += sol.bland_fallbacks
    return curve


def lp_limit_bits(l, k, p):
    """LP optimum in bits for form (l, k) at crossover p: a one-point
    lp_limit_curve, 0 at the endpoints (LpCurve)."""
    return float(lp_limit_curve(l, k, [p]).bits[0])


def lp_limit_rate(l, k, p):
    """lp_limit_bits divided by the blocklength n = l + k."""
    return lp_limit_bits(l, k, p) / (l + k)


def optimal_rows_l1(n):
    """The optimal row multiset for bin size e = 2, in closed form.

    C(n, i) copies of the row with single counts at distances i and
    n - i, for i below n/2; for even n the centre row places both
    codewords at distance n/2 and appears C(n, n/2) / 2 times, which
    makes the column sums meet the binomial profile exactly.
    Returns [(row tuple, multiplicity)].
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for i in range((n + 1) // 2):
        row = [0] * (n + 1)
        row[i] = 1
        row[n - i] = 1
        out.append((tuple(row), math.comb(n, i)))
    if n % 2 == 0:
        row = [0] * (n + 1)
        row[n // 2] = 2
        out.append((tuple(row), math.comb(n, n // 2) // 2))
    return out


def selection_objective(selection, n, p):
    """Objective value sum_i mult_i * f(row_i) of an explicit selection."""
    gamma = channel_weights(p, n)
    rows = np.array([r for r, _ in selection], dtype=np.int64)
    mults = np.array([m for _, m in selection], dtype=float)
    return float(objective_coefficients(rows, gamma) @ mults)


def selection_satisfies_constraints(selection, n, e):
    """Exact check that a selection hits the binomial column sums."""
    cols = [0] * (n + 1)
    total = 0
    for row, mult in selection:
        if len(row) != n + 1 or sum(row) != e:
            return False
        total += mult
        for j, v in enumerate(row):
            cols[j] += mult * v
    return total == (1 << n) // e and cols == [math.comb(n, j) for j in range(n + 1)]
