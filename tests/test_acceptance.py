"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints "CRITERION n: PASS/FAIL - detail" and then asserts, so
the verdict lines survive into the report either way.  Criterion 1 is
known not to hold and fails honestly rather than being weakened: the
nine hand-transcribed reference listings are not mutually consistent
under the documented RASBA/RAHBA steps, so no uniform recursion yields
all of them in order.  The (3,1)/(4,1) listings use another word order
inside each bin, the (3,2) listing is RASBA of the listed (3,1) words
with its bins in the order 1, 3, 2, 4, and the (2,2) listing is neither
RASBA of the (2,1) listing nor RAHBA of the (1,2) listing.

Criterion 9 checks the published generator and parity-check patterns.
Their coset tables are the family member grown by RAHBA once, RASBA
k - 1 times and RAHBA l - 1 times; that is the standard path only for
l = 1, k = 1 and (3,1), yet every curve equals the standard table's.
"""

import functools
import itertools
import math
import time

import numpy as np

from wiretap.baselines import (
    binary_entropy,
    binning_code_count,
    enumerate_binnings,
    infinite_blocklength_limit,
    sample_binning,
)
from wiretap.bitcore import tables_equal_ordered, tables_equal_partition
from wiretap.equivocation import (
    bin_posteriors,
    conditional_equivocation,
    equivocation_rate,
    total_equivocation,
    total_equivocation_linear,
)
from wiretap.linear_matrices import build_codec, coset_table, is_linear_form
from wiretap.lp_limit import (
    appendix_count,
    build_lp,
    lp_limit_rate,
    optimal_rows_l1,
    selection_objective,
    solve_lp,
)
from wiretap.ni_code import (
    base_table,
    closed_form_table,
    gray_matrix,
    rahba,
    rasba,
    standard_table,
)

from golden_tables import GOLDEN, GRAY_L2, GRAY_L3, make
from posterior_oracle import bin_posteriors_direct

GRID = [float(p) for p in np.linspace(0.0, 0.5, 101)]
P_SPOTS = (0.05, 0.15, 0.25, 0.35, 0.45)
FOUR_FORMS = ((1, 4), (2, 3), (3, 2), (4, 1))
SAMPLE_SEED = 0


def verdict(num, ok, detail):
    line = "CRITERION %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=None)
def spot_limit(l, k, p):
    return lp_limit_rate(l, k, p)


@functools.lru_cache(maxsize=None)
def sampled_rate_matrix(l, k, count):
    """count x len(P_SPOTS) rates for the seeded sample stream."""
    rates = np.empty((count, len(P_SPOTS)))
    for i, t in enumerate(sample_binning(l, k, SAMPLE_SEED, count)):
        for j, p in enumerate(P_SPOTS):
            rates[i, j] = equivocation_rate(t, p)
    return rates


def test_criterion_01_reference_tables_reproduced():
    start = time.monotonic()
    exact, order_only, different = [], [], []
    for form in GOLDEN:
        got = standard_table(*form)
        want = make(form)
        if tables_equal_ordered(got, want):
            exact.append(form)
        elif tables_equal_partition(got, want):
            order_only.append(form)
        else:
            different.append(form)
    elapsed = time.monotonic() - start
    ok = len(exact) == len(GOLDEN) and elapsed < 1.0
    verdict(
        1,
        ok,
        "%d/%d listings ordered-exact in %.2fs; order differs %s; partition differs %s"
        % (len(exact), len(GOLDEN), elapsed, sorted(order_only), sorted(different)),
    )


def test_criterion_02_bin_size_two_meets_limit():
    start = time.monotonic()
    t = standard_table(1, 4)
    worst = max(abs(equivocation_rate(t, p) - spot_limit(1, 4, p)) for p in GRID)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    verdict(2, ok, "form (1,4) max |rate - limit| = %.3g over %d points in %.1fs" % (worst, len(GRID), elapsed))


def test_criterion_03_limit_bounds_random_codes():
    start = time.monotonic()
    worst = -np.inf
    for l, k in FOUR_FORMS:
        rates = sampled_rate_matrix(l, k, 1000)
        for j, p in enumerate(P_SPOTS):
            worst = max(worst, float(rates[:, j].max() - spot_limit(l, k, p)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 600.0
    verdict(3, ok, "worst excess over limit = %.3g across 4 forms x 1000 codes x 5 p in %.1fs" % (worst, elapsed))


def test_criterion_04_family_dominates_samples():
    start = time.monotonic()
    findings = []
    worst_margin = np.inf
    for l, k in FOUR_FORMS:
        t = standard_table(l, k)
        rates = sampled_rate_matrix(l, k, 10_000)
        for j, p in enumerate(P_SPOTS):
            ni = equivocation_rate(t, p)
            top = float(rates[:, j].max())
            worst_margin = min(worst_margin, ni - top)
            if top > ni:
                findings.append(((l, k), p, top - ni))
    elapsed = time.monotonic() - start
    for form, p, excess in findings:
        print("FINDING: a sampled code beats the family at form %s, p=%.2f by %.3g" % (form, p, excess))
    ok = not findings and elapsed < 1800.0
    verdict(4, ok, "%d samples beat the family; smallest lead %.3g bits/symbol in %.1fs" % (len(findings), worst_margin, elapsed))


def test_criterion_05_exhaustive_optimality_21():
    start = time.monotonic()
    tables = list(enumerate_binnings(2, 1))
    count = len(tables)
    ni = standard_table(2, 1)
    worst = -np.inf
    for p in GRID:
        best = max(total_equivocation(t, p) for t in tables)
        worst = max(worst, best - total_equivocation(ni, p))
    elapsed = time.monotonic() - start
    ok = count == 70 and worst <= 1e-12 and elapsed < 60.0
    verdict(5, ok, "%d tables; max shortfall to the best = %.3g over %d p in %.1fs" % (count, worst, len(GRID), elapsed))


def test_criterion_06_tighter_than_infinite_blocklength():
    start = time.monotonic()
    excess = -np.inf
    min_best_gap = np.inf
    for l, k in FOUR_FORMS:
        n = l + k
        gaps = []
        for p in GRID:
            lim = spot_limit(l, k, p)
            outer = infinite_blocklength_limit(p, k / n)
            gaps.append(outer - lim)
        excess = max(excess, -min(gaps))
        min_best_gap = min(min_best_gap, max(gaps))
    elapsed = time.monotonic() - start
    ok = excess <= 1e-9 and min_best_gap > 1e-6
    verdict(
        6,
        ok,
        "limit never above min{h2, k/n} (worst excess %.3g); every form improves somewhere (weakest best gap %.3g) in %.1fs"
        % (excess, min_best_gap, elapsed),
    )


def test_criterion_07_bin_size_two_pattern():
    start = time.monotonic()
    worst = 0.0
    for p in GRID:
        if p in (0.0,):
            continue
        inst = build_lp(5, 2, p)
        sol = solve_lp(inst)
        direct = selection_objective(optimal_rows_l1(5), 5, p)
        worst = max(worst, abs(sol.objective - direct))
    sol = solve_lp(build_lp(5, 2, 0.1))
    got = {(row, round(mult)) for row, mult in sol.selected}
    want = {
        ((1, 0, 0, 0, 0, 1), 1),
        ((0, 1, 0, 0, 1, 0), 5),
        ((0, 0, 1, 1, 0, 0), 10),
    }
    mults_integral = all(abs(m - round(m)) < 1e-7 for _, m in sol.selected)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and got == want and mults_integral
    verdict(7, ok, "max objective gap %.3g; p=0.1 selection %s in %.1fs" % (worst, "matches" if got == want else sorted(got), elapsed))


def test_criterion_08_counting_identities():
    start = time.monotonic()
    bad = [
        (n, e)
        for n in range(1, 7)
        for e in (1, 2, 4, 8, 16)
        if appendix_count(n, e) != math.comb(e + n, e)
    ]
    printed = {
        (1, 4): "1.92e+17",
        (2, 3): "5.93e+19",
        (3, 2): "4.15e+15",
        (4, 1): "3.01e+08",
    }
    offs = [
        (form, "%.2e" % binning_code_count(*form))
        for form, want in printed.items()
        if "%.2e" % binning_code_count(*form) != want
    ]
    elapsed = time.monotonic() - start
    ok = not bad and not offs
    verdict(8, ok, "row-count identities hold for %d (n, e) pairs; code-space magnitudes %s in %.2fs" % (30 - len(bad), "match" if not offs else offs, elapsed))


def _criterion_9_forms():
    forms = [(1, k) for k in range(1, 8)]
    forms += [(2, k) for k in range(1, 6)]
    forms += [(4, k) for k in range(1, 6)]
    forms.append((3, 1))
    return forms


def _coset_growth_path(l, k):
    """Form (l, k), l >= 1, grown by RAHBA, RASBA k - 1 times, RAHBA l - 1 times.

    Built from the base table by the recursions alone, so it is an
    oracle for the coset partition that never touches the GF(2) codec.
    """
    t = rahba(base_table())
    for _ in range(k - 1):
        t = rasba(t)
    for _ in range(l - 1):
        t = rahba(t)
    return t


def test_criterion_09_linear_matrices():
    start = time.monotonic()
    identity_bad, partition_bad, curve_bad = [], [], []
    for l, k in _criterion_9_forms():
        codec = build_codec(l, k)
        n = l + k
        prod = (codec.G @ codec.H_T) % 2
        want = np.zeros((n, k), dtype=int)
        want[:k, :k] = np.eye(k, dtype=int)
        if not np.array_equal(prod, want):
            identity_bad.append((l, k))
            continue
        lin = coset_table(codec)
        rec = standard_table(l, k)
        if not tables_equal_partition(lin, _coset_growth_path(l, k)):
            partition_bad.append((l, k))
        gap = max(abs(total_equivocation(lin, p) - total_equivocation(rec, p)) for p in GRID)
        if gap > 1e-12:
            curve_bad.append(((l, k), gap))
    elapsed = time.monotonic() - start
    ok = not identity_bad and not partition_bad and not curve_bad
    verdict(
        9,
        ok,
        "identity exact for all %d forms%s; curves within 1e-12%s; coset/growth-path partitions differ for %s (%.1fs)"
        % (
            len(_criterion_9_forms()),
            "" if not identity_bad else " EXCEPT %s" % identity_bad,
            "" if not curve_bad else " EXCEPT %s" % curve_bad,
            sorted(partition_bad) if partition_bad else "none",
            elapsed,
        ),
    )


def test_criterion_10_closed_form_equivalence():
    start = time.monotonic()
    bad = []
    for l in range(1, 6):
        for k in range(1, 7 - l):
            if not tables_equal_partition(closed_form_table(l, k), standard_table(l, k)):
                bad.append((l, k))
    gray_ok = (
        gray_matrix(2).tolist() == GRAY_L2.tolist()
        and gray_matrix(3).tolist() == GRAY_L3.tolist()
    )
    elapsed = time.monotonic() - start
    ok = not bad and gray_ok
    verdict(10, ok, "closed form matches the recursion for all n <= 6 forms%s; Gray layouts %s (%.2fs)" % ("" if not bad else " EXCEPT %s" % bad, "match" if gray_ok else "differ", elapsed))


def _constructed_tables(max_n):
    for l in range(0, max_n):
        for k in range(1, max_n - l + 1):
            yield standard_table(l, k)
            if l >= 1:
                yield closed_form_table(l, k)
            if is_linear_form(l, k):
                yield coset_table(build_codec(l, k))
    for form in GOLDEN:
        yield make(form)


def test_criterion_11_engine_endpoints_and_routes():
    start = time.monotonic()
    endpoint_bad, route_bad = [], []
    for t in _constructed_tables(6):
        if abs(total_equivocation(t, 0.0)) > 1e-12 or abs(total_equivocation(t, 0.5) - t.k) > 1e-12:
            endpoint_bad.append((t.l, t.k))
        worst = 0.0
        for z in range(1 << t.n):
            for p in (0.1, 0.37):
                a = bin_posteriors(t, z, p)
                b = bin_posteriors_direct(t, z, p)
                worst = max(worst, float(np.abs(a - b).max()))
        if worst > 1e-12:
            route_bad.append(((t.l, t.k), worst))
    elapsed = time.monotonic() - start
    ok = not endpoint_bad and not route_bad
    verdict(11, ok, "endpoints exact%s; histogram route equals per-word route for all z%s (%.1fs)" % ("" if not endpoint_bad else " EXCEPT %s" % endpoint_bad, "" if not route_bad else " EXCEPT %s" % route_bad, elapsed))


def test_criterion_12_linear_shortcut():
    start = time.monotonic()
    shortcut_bad, spread_bad = [], []
    p_set = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5)
    forms = [(l, k) for l in range(0, 6) for k in range(1, 7 - l) if is_linear_form(l, k)]
    for l, k in forms:
        t = coset_table(build_codec(l, k))
        for p in p_set:
            if abs(total_equivocation_linear(t, p) - total_equivocation(t, p)) > 1e-12:
                shortcut_bad.append(((l, k), p))
            conds = [conditional_equivocation(t, z, p) for z in range(1 << t.n)]
            if max(conds) - min(conds) > 1e-9:
                spread_bad.append(((l, k), p))
    elapsed = time.monotonic() - start
    ok = not shortcut_bad and not spread_bad
    verdict(12, ok, "shortcut matches the full average for %d linear forms%s; conditionals mutually equal%s (%.1fs)" % (len(forms), "" if not shortcut_bad else " EXCEPT %s" % shortcut_bad, "" if not spread_bad else " EXCEPT %s" % spread_bad, elapsed))
