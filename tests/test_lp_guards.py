"""The LP's guards: the row-count cross-check and the simplex's numerical
failures, each met on a hand-built instance or with one helper patched."""

import numpy as np
import pytest

from wiretap import lp_limit
from wiretap.bitcore import N_CAP, CapExceeded
from wiretap.lp_limit import (
    CountMismatch,
    LpInstance,
    SimplexError,
    appendix_count,
    build_lp,
    lp_limit_curve,
    optimal_rows_l1,
    selection_objective,
    solve_lp,
)


def test_appendix_count_refuses_formulas_that_disagree(monkeypatch):
    # a nested-sum table of all ones counts 15 rows at (3, 4); the single sum counts 35
    monkeypatch.setattr(lp_limit, "_nested", lambda colors, rem: [[1] * (rem + 1) for _ in range(colors + 1)])
    with pytest.raises(CountMismatch, match="^row-count formulas disagree: 15 vs 35$"):
        appendix_count(3, 4)


def unit_instance(f):
    # n = 1, e = 1: the rows u_0 and u_1, then one zero column; b = (1, 1)
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return LpInstance(n=1, e=1, f=np.asarray(f, dtype=float), A=A, b=np.ones(2))


def test_a_repeated_basis_column_is_a_singular_basis():
    with pytest.raises(SimplexError, match="^singular working basis$"):
        solve_lp(unit_instance([0.0, 0.0, 0.0]), [0, 0])


def test_a_zero_column_of_positive_cost_is_an_unbounded_direction():
    # it prices in at reduced cost 1 and no basic value bounds it
    with pytest.raises(SimplexError, match="^unbounded direction; instance is malformed$"):
        solve_lp(unit_instance([0.0, 0.0, 1.0]), [0, 1])


def test_the_pivot_guard_stops_a_solve_that_runs_past_it(monkeypatch):
    inst = build_lp(5, 2, 0.1)
    assert solve_lp(inst).pivots_phase2 > 1
    monkeypatch.setattr(lp_limit, "_MAX_PIVOTS", 1)
    with pytest.raises(SimplexError, match="^pivot guard tripped after 1 iterations$"):
        solve_lp(inst)


def test_the_curve_refuses_a_form_past_the_blocklength_cap_before_any_row(monkeypatch):
    """Past n = N_CAP the solver's tolerances no longer hold ((1,46) came out 15.9 bits
    loose), so the form is refused as the table builders refuse it; (1,23) still solves."""
    solved = lp_limit_curve(1, N_CAP - 1, [0.1]).bits[0]
    assert abs(solved - selection_objective(optimal_rows_l1(N_CAP), N_CAP, 0.1)) < 1e-4

    def no_rows(n, e):
        raise AssertionError("rows enumerated for (%d, %d)" % (n, e))

    monkeypatch.setattr(lp_limit, "enumerate_rows", no_rows)
    for k in (N_CAP, 46):
        with pytest.raises(CapExceeded, match="^blocklength %d exceeds cap %d$" % (k + 1, N_CAP)):
            lp_limit_curve(1, k, [0.1])
