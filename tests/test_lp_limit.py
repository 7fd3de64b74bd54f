import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize

from wiretap import lp_limit
from wiretap.baselines import sample_binning
from wiretap.bitcore import N_CAP, CapExceeded
from wiretap.equivocation import channel_weights, distance_profile, equivocation_curve, equivocation_rate
from wiretap.lp_limit import (
    CountMismatch,
    LpInstance,
    SimplexError,
    appendix_count,
    build_lp,
    enumerate_rows,
    lp_limit_bits,
    lp_limit_curve,
    lp_limit_rate,
    objective_coefficients,
    optimal_rows_l1,
    selection_objective,
    selection_satisfies_constraints,
    solve_lp,
)
from wiretap.ni_code import standard_table

from traced_peak import peak_bytes

P_SPOTS = (0.05, 0.15, 0.25, 0.35, 0.45)


def brute_rows(n, e):
    out = [c for c in itertools.product(range(e + 1), repeat=n + 1) if sum(c) == e]
    return set(out)


def test_enumerate_rows_22_exact_order():
    got = enumerate_rows(2, 2).tolist()
    assert got == [
        [2, 0, 0],
        [1, 1, 0],
        [0, 2, 0],
        [1, 0, 1],
        [0, 1, 1],
        [0, 0, 2],
    ]


def test_enumerate_rows_counts():
    assert len(enumerate_rows(5, 2)) == 21
    assert len(enumerate_rows(5, 16)) == 20349


def test_enumerate_rows_matches_brute_force():
    for n, e in ((2, 2), (3, 4), (4, 2), (3, 2)):
        rows = [tuple(r) for r in enumerate_rows(n, e).tolist()]
        assert set(rows) == brute_rows(n, e)
        assert len(set(rows)) == len(rows)
        # colexicographic: sorting by the reversed tuple is a no-op
        assert rows == sorted(rows, key=lambda r: tuple(reversed(r)))


def test_enumerate_rows_colex_at_scale():
    for n, e in ((5, 16), (6, 8), (1, 40), (3, 64)):
        rows = enumerate_rows(n, e)
        assert rows.shape == (math.comb(e + n, e), n + 1)
        assert rows.min() >= 0 and np.all(rows.sum(axis=1) == e)
        # strictly increasing when compared from the last coordinate down
        diff = rows[1:, ::-1] - rows[:-1, ::-1]
        first = diff[np.arange(len(diff)), np.argmax(diff != 0, axis=1)]
        assert np.all(first > 0)


def test_enumerate_rows_cap(monkeypatch):
    monkeypatch.setattr(lp_limit, "ROW_CAP", 10)
    with pytest.raises(CapExceeded) as exc:
        enumerate_rows(5, 2)
    assert "21" in str(exc.value)


def test_appendix_count_identities():
    for n in range(1, 7):
        for e in (1, 2, 4, 8, 16):
            assert appendix_count(n, e) == math.comb(e + n, e)
    assert appendix_count(2, 2) == 6
    assert appendix_count(5, 2) == 21
    # the nested sums run about e deep: tabled bottom-up, not recursed
    assert appendix_count(13, 4096) == math.comb(4109, 4096)


def test_build_lp_shapes_and_rhs():
    inst = build_lp(5, 2, 0.1)
    assert inst.b.tolist() == [1, 5, 10, 10, 5, 1]
    assert inst.A.shape == (6, 21)
    assert np.array_equal(inst.A.T, enumerate_rows(5, 2))


def test_build_lp_holds_the_rows_once():
    """At (4,1) the traced peak of build_lp stays within 1.8 times A.nbytes: the
    candidate rows are enumerated as the float columns of A, with no integer copy."""
    inst = build_lp(5, 16, 0.1)  # first-call allocations are not the point
    peak = peak_bytes(lambda: build_lp(5, 16, 0.1))
    assert inst.A.shape == (6, 20349) and inst.A.dtype == np.float64
    assert peak <= 1.8 * inst.A.nbytes, (peak, inst.A.nbytes)


def test_build_lp_holds_a_row_major_matrix():
    """A is the C-contiguous (n+1, N) buffer the rows were enumerated into."""
    inst = build_lp(5, 16, 0.2)
    assert inst.A.flags.c_contiguous
    assert enumerate_rows(5, 16).T.flags.c_contiguous


def test_solve_prices_into_one_buffer():
    """From the pure-row start at (4,1), p = 0.2, the traced peak of solve_lp
    stays below 1.5 N-length float arrays: the reduced costs of every pivot
    share one buffer."""
    inst = build_lp(5, 16, 0.2)
    sol = solve_lp(inst)  # first-call allocations are not the point
    peak = peak_bytes(lambda: solve_lp(inst))
    size = inst.A.shape[1] * 8
    assert sol.pivots_phase2 > 0
    assert peak < 1.5 * size, (peak / size)


def test_objective_holds_one_buffer_beside_the_masses():
    """After a warm-up call, the (4,1) objective peaks below 2.5 N-length
    float arrays: the masses P and -P log2 P in one buffer beside them."""
    inst = build_lp(5, 16, 0.2)
    gamma = channel_weights(0.2, 5)
    f = objective_coefficients(inst.A.T, gamma)
    peak = peak_bytes(lambda: objective_coefficients(inst.A.T, gamma))
    size = inst.A.shape[1] * 8
    assert np.array_equal(f, inst.f)
    assert peak < 2.5 * size, (peak / size)


def test_objective_is_zero_at_zero_mass_without_a_warning():
    # at p = 0 the mass of row r is r[0], so many rows have P = 0
    inst = build_lp(5, 16, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = objective_coefficients(inst.A.T, channel_weights(0.0, 5))
    assert f.tolist() == [-v * math.log2(v) if v else 0.0 for v in inst.A[0].tolist()]


def test_objective_uniform_at_half():
    # every candidate row has the same mass e / 2**n at p = 0.5
    inst = build_lp(5, 2, 0.5)
    assert np.allclose(inst.f, 0.25, atol=1e-15)


def test_objective_handles_mass_above_one():
    inst = build_lp(2, 2, 0.1)
    idx = [tuple(r) for r in inst.A.T.tolist()].index((2, 0, 0))
    want = -1.62 * math.log2(1.62)
    assert abs(inst.f[idx] - want) < 1e-12
    assert inst.f[idx] < 0.0


def test_lp_against_scipy():
    """Cross-check the hand-rolled simplex against an external solver."""
    for l, k in ((1, 2), (2, 1), (2, 2), (1, 4)):
        for p in P_SPOTS:
            inst = build_lp(l + k, 1 << l, p)
            sol = solve_lp(inst)
            res = scipy.optimize.linprog(
                -inst.f, A_eq=inst.A, b_eq=inst.b, bounds=(0, None), method="highs"
            )
            assert res.status == 0
            assert abs(sol.objective - (-res.fun)) < 1e-6


def test_solution_is_integral_vertex():
    for l, k in ((1, 3), (2, 2), (3, 1), (2, 3)):
        for p in (0.1, 0.33):
            inst = build_lp(l + k, 1 << l, p)
            sol = solve_lp(inst)
            assert np.allclose(inst.A @ sol.x, inst.b, atol=1e-9)
            assert np.all(sol.x >= -1e-12)
            assert len(sol.basis) == l + k + 1
            positive = sol.x[sol.x > 1e-9]
            assert len(positive) <= l + k + 1
            assert np.allclose(positive, np.round(positive), atol=1e-7)


def test_solve_deterministic():
    inst = build_lp(5, 4, 0.2)
    a, b = solve_lp(inst), solve_lp(inst)
    assert a.basis == b.basis
    assert np.array_equal(a.x, b.x)


def test_any_real_code_is_feasible():
    """Distance profiles of actual tables are LP-feasible points."""
    for t in sample_binning(2, 3, seed=41, count=3):
        inst = build_lp(t.n, 1 << t.l, 0.3)
        index = {tuple(r): i for i, r in enumerate(inst.A.T.tolist())}
        x = np.zeros(len(inst.A.T))
        for row in distance_profile(t, 13).tolist():
            x[index[tuple(row)]] += 1
        assert np.array_equal(inst.A @ x, inst.b)


def test_limit_bounds_sampled_codes():
    for l, k in ((1, 2), (2, 1)):
        for p in P_SPOTS:
            limit = lp_limit_rate(l, k, p)
            for t in sample_binning(l, k, seed=8, count=50):
                assert equivocation_rate(t, p) <= limit + 1e-9


def test_limit_endpoints_and_conventions():
    assert lp_limit_bits(1, 4, 0.0) == 0.0
    assert lp_limit_bits(1, 4, 1.0) == 0.0
    assert abs(lp_limit_bits(1, 4, 0.5) - 4.0) < 1e-9
    assert abs(lp_limit_bits(2, 2, 0.5) - 2.0) < 1e-9
    assert abs(lp_limit_rate(1, 4, 0.5) - 0.8) < 1e-9


def test_limit_monotone_on_half_interval():
    for l, k in ((1, 4), (2, 3)):
        vals = [lp_limit_rate(l, k, 0.05 * i) for i in range(11)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-9


def test_limit_cap_propagates():
    with pytest.raises(CapExceeded):
        lp_limit_bits(8, 8, 0.1)


def test_optimal_rows_l1_layout():
    assert optimal_rows_l1(5) == [
        ((1, 0, 0, 0, 0, 1), 1),
        ((0, 1, 0, 0, 1, 0), 5),
        ((0, 0, 1, 1, 0, 0), 10),
    ]
    # even n splits the centre weight between paired slots
    assert optimal_rows_l1(2) == [((1, 0, 1), 1), ((0, 2, 0), 1)]


def test_optimal_rows_l1_feasible():
    for n in range(1, 9):
        assert selection_satisfies_constraints(optimal_rows_l1(n), n, 2)


def test_selection_objective_matches_simplex():
    """Closed-form selection vs simplex optimum for bin size two.

    Agreement is asserted loosely and any gap beyond 1e-9 is printed as
    a flag, since the closed form is only spot-verified optimal.
    """
    flagged = []
    for n in (2, 3, 4, 5):
        sel = optimal_rows_l1(n)
        for p in P_SPOTS:
            lp = lp_limit_bits(1, n - 1, p)
            direct = selection_objective(sel, n, p)
            if abs(lp - direct) > 1e-9:
                flagged.append((n, p, lp - direct))
            assert abs(lp - direct) < 1e-6
    if flagged:
        print("pattern objective diverges from simplex at:", flagged)


def test_selection_constraint_rejects_bad_input():
    assert not selection_satisfies_constraints([((1, 0, 1), 1)], 2, 2)
    assert not selection_satisfies_constraints([((1, 1), 1)], 2, 2)
    assert not selection_satisfies_constraints([((1, 0, 1), 1), ((0, 2, 0), 2)], 2, 2)


def test_appendix_count_domain():
    with pytest.raises(ValueError):
        appendix_count(0, 2)
    with pytest.raises(ValueError):
        enumerate_rows(2, 0)


def test_lp_entry_points_reject_bad_arguments():
    with pytest.raises(ValueError):
        build_lp(3, 2, 1.5)
    with pytest.raises(ValueError):
        lp_limit_curve(-1, 2, [0.1])
    with pytest.raises(ValueError):
        optimal_rows_l1(0)


FOUR_FORMS = ((1, 4), (2, 3), (3, 2), (4, 1))


def test_curve_matches_independent_solves():
    grid = [0.0, 0.5, 1.0] + [float(p) for p in np.linspace(0.02, 0.98, 13)]
    np.random.default_rng(5).shuffle(grid)
    for l, k in FOUR_FORMS:
        curve = lp_limit_curve(l, k, grid)
        assert curve.grid == grid
        for p, bits in zip(grid, curve.bits):
            assert abs(bits - lp_limit_bits(l, k, p)) <= 1e-12, (l, k, p)
        assert np.array_equal(curve.rates, curve.bits / (l + k))


def test_curve_certificate_gap():
    grid = [float(p) for p in np.linspace(0.0, 1.0, 41)]
    for l, k in FOUR_FORMS:
        curve = lp_limit_curve(l, k, grid)
        gap = curve.upper - curve.bits
        assert np.all(gap <= 1e-10), (l, k, gap.max())
        assert np.all(gap >= -1e-12), (l, k, gap.min())
        assert curve.stats()["max_dual_gap"] == float(gap.max())


# crossovers at the edges of [0, 1] and beside 1/2, where weights underflow
# or the ratio p / q is 1 to within one rounding
EDGE_P = (5e-324, 1e-300, 1e-17, 1e-13, math.nextafter(0.5, 0), math.nextafter(0.5, 1), 1 - 2**-53, 1 - 1e-13)


@pytest.mark.parametrize("form", FOUR_FORMS + ((2, 6),))
def test_upper_bounds_the_family_at_edge_crossovers(form):
    """Weak duality where the weights are extreme: as one sweep and point by
    point, every value is finite and the dual bound is at least the
    family's equivocation."""
    l, k = form
    family = equivocation_curve(standard_table(l, k), EDGE_P).bits
    curves = [lp_limit_curve(l, k, EDGE_P)] + [lp_limit_curve(l, k, [p]) for p in EDGE_P]
    bits = np.concatenate([c.bits for c in curves])
    upper = np.concatenate([c.upper for c in curves])
    assert np.isfinite(bits).all() and np.isfinite(upper).all(), form
    assert (upper >= np.tile(family, 2)).all(), (form, upper, family)


def test_curve_checks_its_grid_before_enumerating_rows(monkeypatch):
    def refuse(n, e):
        raise AssertionError("rows enumerated before the grid was checked")

    monkeypatch.setattr(lp_limit, "enumerate_rows", refuse)
    for grid in ([0.1, 1.5], [1.5], [0.2, float("nan")], [-0.0, -1e-300]):
        with pytest.raises(ValueError, match="p must lie in"):
            lp_limit_curve(2, 3, grid)
    with pytest.raises(ValueError, match="p must lie in"):
        build_lp(5, 4, 1.5)


def test_upper_is_the_dual_certificate_of_the_returned_basis():
    """upper = b.y + max(0, max(f - A^T y)) * 2**n / e, y recomputed from the basis."""
    for l, k in FOUR_FORMS:
        for p in (0.05, 0.2):
            inst = build_lp(l + k, 1 << l, p)
            sol = solve_lp(inst)
            y = np.linalg.solve(inst.A[:, sol.basis].T, inst.f[sol.basis])
            slack = max(0.0, float(np.max(inst.f - y @ inst.A)))
            want = float(inst.b @ y) + slack * (1 << (l + k)) / (1 << l)
            assert abs(sol.upper - want) <= 1e-12, (l, k, p)


def test_curve_not_below_highs_where_loose_pricing_stops_short():
    """At p = 0.05 pricing at 1e-10 stops about 3e-11 bits short."""
    for l, k in ((4, 1), (3, 2)):
        inst = build_lp(l + k, 1 << l, 0.05)
        res = scipy.optimize.linprog(
            -inst.f, A_eq=inst.A, b_eq=inst.b, bounds=(0, None), method="highs-ds",
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert res.status == 0
        assert lp_limit_bits(l, k, 0.05) >= -res.fun - 1e-12


def test_curve_terminates_at_half():
    # every f_i is equal at p = 1/2, so every basis is optimal
    for l, k in FOUR_FORMS:
        curve = lp_limit_curve(l, k, [0.5, 0.5])
        assert np.allclose(curve.bits, k, atol=1e-9)
        assert curve.pivots_phase2 == [0, 0]


def test_curve_is_deterministic():
    grid = [0.3, 0.05, 0.45, 0.0, 0.2]
    a, b = lp_limit_curve(4, 1, grid), lp_limit_curve(4, 1, grid)
    assert a.stats() == b.stats()
    assert a.bases == b.bases
    assert np.array_equal(a.bits, b.bits)


def test_curve_counters():
    grid = [0.0, 0.1, 0.2, 1.0]
    curve = lp_limit_curve(3, 2, grid)
    stats = curve.stats()
    assert stats["candidate_rows"] == math.comb(8 + 5, 8)
    assert "pivots_phase1" not in stats
    assert len(stats["pivots_phase2"]) == len(grid)
    assert stats["pivots_phase2"][0] == stats["pivots_phase2"][-1] == 0
    assert curve.bases[0] is None and len(curve.bases[1]) == 6
    # endpoints only: nothing is enumerated, so the cap never trips
    assert lp_limit_curve(8, 8, [0.0, 1.0]).bits.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        lp_limit_curve(1, 2, [0.1, 1.5])


def test_pure_basis_indexes_the_pure_rows():
    """Column C(e+d, d) - 1 of enumerate_rows is e*u_d for every (n, e) with N <= 1e5."""
    forms = 0
    # every bin size e = 2**l the LP uses, and every other e up to 16
    sizes = sorted(set(range(1, 17)) | {1 << l for l in range(17)})
    for n in range(1, N_CAP + 1):
        for e in sizes:
            if math.comb(e + n, e) > 100_000:
                break
            basis = lp_limit._pure_basis(n, e)
            assert np.array_equal(enumerate_rows(n, e)[basis], e * np.eye(n + 1, dtype=np.int64))
            forms += 1
    assert forms == 237


def test_solve_lp_needs_the_pure_rows():
    inst = build_lp(3, 2, 0.2)
    want = solve_lp(inst).objective
    # the same columns in reverse order: the LP is unchanged, the start is gone
    flipped = LpInstance(n=3, e=2, f=inst.f[::-1], A=inst.A[:, ::-1], b=inst.b)
    with pytest.raises(SimplexError):
        solve_lp(flipped)
    assert abs(solve_lp(flipped, [len(inst.f) - 1 - i for i in solve_lp(inst).basis]).objective - want) < 1e-12
    # too few columns to hold the last pure row
    short = LpInstance(n=3, e=2, f=inst.f[:5], A=inst.A[:, :5], b=inst.b)
    with pytest.raises(SimplexError):
        solve_lp(short)


def test_bland_fallback_reaches_the_same_optimum(monkeypatch):
    grid = [float(p) for p in np.linspace(0.0, 0.5, 11)]
    want = lp_limit_curve(4, 1, grid)
    monkeypatch.setattr(lp_limit, "_DEGENERATE_RUN", 1)
    got = lp_limit_curve(4, 1, grid)
    assert got.bland_fallbacks > 0
    assert np.max(np.abs(got.bits - want.bits)) <= 1e-12
    assert np.all(got.upper - got.bits <= 1e-10)
