import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap import equivocation
from wiretap.baselines import enumerate_binnings, sample_binning
from wiretap.bitcore import CodeTable, partition_of, xor_translate
from wiretap.equivocation import (
    NotLinearError,
    bin_posteriors,
    channel_weights,
    conditional_equivocation,
    distance_profile,
    ensemble_bits,
    equivocation_curve,
    equivocation_rate,
    is_coset_table,
    total_equivocation,
    total_equivocation_linear,
)
from wiretap.linear_matrices import build_codec, coset_table, is_linear_form
from wiretap.lp_limit import lp_limit_curve
from wiretap.ni_code import standard_table

from coset_codes import coset_table_of
from golden_tables import make
from posterior_oracle import bin_posteriors_direct
from traced_peak import peak_bytes


def entropy_bits(probs):
    return -sum(v * math.log2(v) for v in probs if v > 0.0)


def test_channel_weights_examples():
    assert np.allclose(channel_weights(0.5, 3), [0.125] * 4, atol=1e-15)
    got = channel_weights(0.1, 2)
    assert np.allclose(got, [0.81, 0.09, 0.01], atol=1e-15)
    assert channel_weights(0.0, 4).tolist() == [1, 0, 0, 0, 0]
    assert channel_weights(1.0, 4).tolist() == [0, 0, 0, 0, 1]


def _weights_by_loop(p, n):
    # the per-step loop that _weight_rows' cumulative product replaced
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
        for d in range(n, 0, -1):
            gamma[d - 1] = gamma[d] * (q / p)
        return gamma
    gamma[0] = q ** n
    for d in range(n):
        gamma[d + 1] = gamma[d] * (p / q)
    return gamma


def test_weight_rows_equal_the_step_loop_bit_for_bit():
    """Every row of _weight_rows, and channel_weights, is bit for bit the loop that
    multiplies by the ratio one step at a time, at the endpoints, at 1/2, at the
    smallest subnormal and near 1, and at 200 random crossovers."""
    rng = random.Random(41)
    grid = [0.0, 1.0, 0.5, 5e-324, 1e-300, 1 - 1e-16, -0.0] + [rng.random() for _ in range(200)]
    for n in (1, 5, 12, 24):
        rows = equivocation._weight_rows(grid, n)
        assert rows.shape == (len(grid), n + 1)
        for p, row in zip(grid, rows):
            want = _weights_by_loop(p, n).tobytes()
            assert row.tobytes() == want == channel_weights(p, n).tobytes(), (p, n)
    assert equivocation._weight_rows([], 3).shape == (0, 4)
    with pytest.raises(ValueError, match="got 1.5"):
        equivocation._weight_rows([0.2, 1.5], 3)


def test_channel_weights_normalization():
    for n in (1, 3, 6, 10):
        for p in (0.0, 0.01, 0.2, 0.5, 0.77, 1.0):
            gamma = channel_weights(p, n)
            total = sum(math.comb(n, d) * gamma[d] for d in range(n + 1))
            assert abs(total - 1.0) < 1e-12


def test_channel_weights_domain():
    with pytest.raises(ValueError):
        channel_weights(-0.1, 3)
    with pytest.raises(ValueError):
        channel_weights(1.1, 3)
    with pytest.raises(ValueError):
        channel_weights(0.3, 0)


def test_weights_and_posterior_sums_at_n24_match_mpmath():
    """channel_weights and bin posteriors at n = 24 against 50-digit mpmath values."""
    n = 24
    t = standard_table(12, 12)
    z = 0x5A5A5A
    with mpmath.workdps(50):
        for p in (1e-3, 0.11, 0.5, 0.999):
            P = mpmath.mpf(p)
            want = [P**d * (1 - P) ** (n - d) for d in range(n + 1)]
            assert all(abs(g - w) <= 1e-13 * w for g, w in zip(channel_weights(p, n), want))
            post = bin_posteriors(t, z, p)
            # the bins partition the words, so the posteriors sum to (p + 1 - p)**n
            assert abs(mpmath.fsum(math.comb(n, d) * w for d, w in enumerate(want)) - 1) < 1e-45
            assert abs(post.sum() - 1) <= 1e-12
            for i in (0, 1234, len(post) - 1):
                mass = mpmath.fsum(want[(w ^ z).bit_count()] for w in t.array[i].tolist())
                assert abs(post[i] - mass) <= 1e-12 * mass


def test_distance_profile_example():
    t = make((1, 1))
    assert distance_profile(t, 0b00).tolist() == [[1, 0, 1], [0, 2, 0]]
    assert distance_profile(t, 0b01).tolist() == [[0, 2, 0], [1, 0, 1]]


def test_distance_profile_sums():
    """Rows sum to the bin size, columns to the binomial profile."""
    for i, t in enumerate(sample_binning(2, 3, seed=5, count=4)):
        rows = distance_profile(t, i * 3)
        n = t.n
        assert rows.sum(axis=1).tolist() == [1 << t.l] * (1 << t.k)
        assert rows.sum(axis=0).tolist() == [math.comb(n, j) for j in range(n + 1)]


def test_distance_profile_domain():
    t = make((1, 1))
    with pytest.raises(ValueError):
        distance_profile(t, 4)
    with pytest.raises(ValueError):
        distance_profile(CodeTable(1, 1, [[0, 1], [2, 2]]), 0)


def test_distance_profile_equals_the_per_word_count():
    tables = [make((2, 2)), standard_table(3, 4), next(sample_binning(3, 4, seed=5)), next(sample_binning(4, 10, seed=1))]
    for t in tables:
        for z in (0, 1, 0b1011, (1 << t.n) - 1):
            want = np.zeros((len(t.bins), t.n + 1), dtype=np.int64)
            for i, b in enumerate(t.bins):
                for w in b:
                    want[i, (w ^ z).bit_count()] += 1
            got = distance_profile(t, z)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()


def test_posterior_routes_agree():
    """Histogram route and per-word route must give the same posterior."""
    tables = [make((1, 1)), make((2, 2)), standard_table(1, 3)]
    tables += list(sample_binning(2, 2, seed=9, count=3))
    for t in tables:
        for z in range(1 << t.n):
            for p in (0.07, 0.3, 0.5):
                a = bin_posteriors(t, z, p)
                b = bin_posteriors_direct(t, z, p)
                assert np.allclose(a, b, atol=1e-12)
                assert abs(a.sum() - 1.0) < 1e-12


def test_conditional_equivocation_pinned_value():
    # bins {00,11} / {01,10} observed as 00 at p = 0.1: posterior (0.82, 0.18)
    got = conditional_equivocation(make((1, 1)), 0b00, 0.1)
    want = entropy_bits([0.82, 0.18])
    assert abs(got - want) < 1e-12
    assert abs(got - 0.680077) < 1e-6


def test_conditional_equivocation_endpoints():
    t = make((1, 1))
    assert conditional_equivocation(t, 0b00, 0.0) == 0.0
    assert conditional_equivocation(t, 0b00, 1.0) == 0.0
    assert abs(conditional_equivocation(t, 0b10, 0.5) - 1.0) < 1e-12
    for z, p in ((4, 0.1), (-1, 0.1), (0, -0.1), (0, 1.5)):
        with pytest.raises(ValueError):
            conditional_equivocation(t, z, p)
        with pytest.raises(ValueError):
            bin_posteriors(t, z, p)


def test_total_equivocation_matches_average_of_conditionals():
    """The vectorized total must equal the z-by-z average exactly."""
    tables = [make((2, 1)), make((2, 2)), standard_table(0, 3)]
    tables += list(sample_binning(1, 3, seed=2, count=2))
    for t in tables:
        for p in (0.04, 0.21, 0.5):
            avg = sum(conditional_equivocation(t, z, p) for z in range(1 << t.n)) / (1 << t.n)
            assert abs(total_equivocation(t, p) - avg) < 1e-12


def test_total_equivocation_endpoints_and_bounds():
    rng = random.Random(13)
    tables = [make((1, 2)), make((3, 1))] + list(sample_binning(2, 2, seed=31, count=5))
    for t in tables:
        assert total_equivocation(t, 0.0) == 0.0
        assert total_equivocation(t, 1.0) == 0.0
        assert abs(total_equivocation(t, 0.5) - t.k) < 1e-12
        p = rng.random() * 0.5
        assert 0.0 <= total_equivocation(t, p) <= t.k + 1e-12


def test_total_equivocation_symmetry():
    # flipping every observation bit maps p to 1-p, same average
    for t in (make((1, 1)), make((2, 2)), standard_table(2, 1)):
        for p in (0.05, 0.23, 0.4):
            a = total_equivocation(t, p)
            b = total_equivocation(t, 1.0 - p)
            assert abs(a - b) < 1e-12


def test_total_equivocation_translation_invariance():
    rng = random.Random(17)
    for t in list(sample_binning(2, 2, seed=23, count=3)) + [make((3, 2))]:
        z = rng.randrange(1 << t.n)
        for p in (0.11, 0.37):
            assert abs(total_equivocation(t, p) - total_equivocation(xor_translate(t, z), p)) < 1e-12


def test_equivocation_rate():
    t = make((1, 1))
    assert abs(equivocation_rate(t, 0.5) - 0.5) < 1e-15
    assert equivocation_rate(t, 0.0) == 0.0
    t = standard_table(1, 4)
    assert 0.0 < equivocation_rate(t, 0.2) <= 0.8 + 1e-12


def test_linear_shortcut_on_coset_tables():
    for form in ((1, 2), (2, 2), (1, 4), (4, 1)):
        t = coset_table(build_codec(*form))
        for p in (0.08, 0.2, 0.35, 0.5):
            full = total_equivocation(t, p)
            fast = total_equivocation_linear(t, p)
            assert abs(full - fast) < 1e-12


def test_linear_shortcut_on_recursive_tables():
    # the recursion's l = 1 tables are linear too
    t = standard_table(1, 2)
    for p in (0.2, 0.45):
        assert abs(total_equivocation_linear(t, p) - total_equivocation(t, p)) < 1e-12


def test_linear_shortcut_rejects_nonlinear_table():
    # the bin of 000 is a subgroup but 001's bin is not its coset
    t = CodeTable(1, 2, [[0b000, 0b111], [0b001, 0b010], [0b011, 0b100], [0b101, 0b110]])
    with pytest.raises(NotLinearError) as exc:
        total_equivocation_linear(t, 0.1)
    assert "differs" in str(exc.value)


def test_linear_shortcut_checks_before_it_prices(monkeypatch):
    """A non-coset table raises NotLinearError without one kernel call."""
    kernel = equivocation._types
    calls = []

    def spy_kernel(block, zs, n):
        calls.append(len(zs))
        return kernel(block, zs, n)

    monkeypatch.setattr(equivocation, "_types", spy_kernel)
    for t in (make((3, 2)), next(sample_binning(2, 3, seed=5))):
        assert not is_coset_table(t)
        with pytest.raises(NotLinearError):
            total_equivocation_linear(t, 0.1)
    assert calls == []
    # the spy is live: a coset table is priced through it, at z = 0 alone
    total_equivocation_linear(standard_table(2, 2), 0.1)
    assert calls == [1]


def test_coset_certificate_equals_brute_force_translation_check():
    """is_coset_table agrees with "every XOR translate has the same partition"."""
    for form, count in (((2, 1), 70), ((1, 2), 2520)):
        tables = list(enumerate_binnings(*form))
        assert len(tables) == count
        certified = 0
        for t in tables:
            want = all(partition_of(xor_translate(t, z)) == partition_of(t) for z in range(1 << t.n))
            assert is_coset_table(t) == want
            certified += want
        # (2,1): the 7 subgroups of order 4 each give 2 orderings of bins;
        # (1,2): the 7 subgroups of order 2 each give 4! orderings
        assert certified == {(2, 1): 14, (1, 2): 168}[form]


def test_certificate_rejects_a_tiling_and_the_golden_32_table():
    # both bins translate {000, 001, 010, 111}, which is not a subgroup
    tiling = CodeTable(2, 1, [[0, 1, 2, 7], [4, 5, 6, 3]])
    for t in (tiling, make((3, 2))):
        assert not is_coset_table(t)
        with pytest.raises(NotLinearError) as exc:
            total_equivocation_linear(t, 0.1)
        assert "differs" in str(exc.value)
    # the two bins of the tiling have different conditional entropies at p = 0.1
    conds = {round(conditional_equivocation(tiling, z, 0.1), 12) for z in range(8)}
    assert len(conds) > 1


def _family_and_coset_tables(max_n):
    for n in range(1, max_n + 1):
        for l in range(0, n):
            k = n - l
            yield standard_table(l, k)
            if is_linear_form(l, k):
                yield coset_table(build_codec(l, k))


def test_certified_route_equals_the_average_over_every_observation():
    """On every family and coset table with n <= 8, z = 0 alone gives the average."""
    ps = (0.05, 0.2, 0.45)
    count = 0
    for t in _family_and_coset_tables(8):
        curve = equivocation_curve(t, ps)
        assert curve.route == "coset"
        for p, h in zip(ps, curve.bits):
            avg = sum(conditional_equivocation(t, z, p) for z in range(1 << t.n)) / (1 << t.n)
            assert abs(total_equivocation(t, p) - avg) < 1e-12
            assert abs(h - avg) < 1e-12
        count += 1
    assert count == 36 + 20


def test_curve_equals_per_point_values_on_a_shuffled_grid():
    grid = [0.5, 0.13, 1.0, 0.0, 0.31, 0.07, 0.5 - 1e-9, 0.45, 0.999]
    tables = {
        "coset": standard_table(2, 3),
        "full": next(sample_binning(2, 3, seed=4)),
        "l0": standard_table(0, 4),
    }
    routes = {"coset": "coset", "full": "full", "l0": "coset"}
    for name, t in tables.items():
        curve = equivocation_curve(t, grid)
        assert curve.route == routes[name]
        assert len(curve.bits) == len(grid)
        for p, h in zip(grid, curve.bits):
            assert abs(h - total_equivocation(t, p)) < 1e-12
        # each point is computed on its own, so the rest of the grid changes no bit
        assert curve.bits.tolist() == [total_equivocation(t, p) for p in grid]
        assert curve.bits[2] == curve.bits[3] == 0.0
        assert abs(curve.bits[0] - t.k) < 1e-12


def test_profile_at_the_complement_is_the_profile_reversed():
    """d(w, z ^ (2**n - 1)) = n - d(w, z), so the full route may price z and its
    complement from one profile: exact at every z of random and coset tables up to
    n = 6 and at a few z of a (4,16) table."""
    tables = [next(sample_binning(l, n - l, seed=n)) for n in range(2, 7) for l in range(1, n)]
    tables += list(_family_and_coset_tables(6))
    for t in tables:
        for z in range(1 << t.n):
            complement = distance_profile(t, z ^ (1 << t.n) - 1)
            assert np.array_equal(complement, distance_profile(t, z)[:, ::-1])
    wide = standard_table(4, 16)
    for z in (0, 1, 0x5A5A5, (1 << wide.n) - 1):
        assert np.array_equal(distance_profile(wide, z ^ (1 << wide.n) - 1), distance_profile(wide, z)[:, ::-1])


def test_full_route_equals_the_per_word_average_past_one_half():
    """Random tables at n = 3..8 on the full route give the per-word oracle's average
    over all 2**n observations within 1e-12, also at p > 1/2, p = 1 - 1e-12 and p = 1,
    where the reversed weights carry the mass."""
    grid = [0.0, 0.04, 0.3, 0.5, 0.62, 0.9, 1 - 1e-12, 1.0]
    for n in range(3, 9):
        t = next(sample_binning(n // 2, n - n // 2, seed=20 + n))
        curve = equivocation_curve(t, grid)
        assert curve.route == "full"
        oracle = [sum(entropy_bits(bin_posteriors_direct(t, z, p)) for z in range(1 << n)) / (1 << n) for p in grid]
        assert np.allclose(curve.bits, oracle, rtol=0, atol=1e-12)


def _kernel_widths(monkeypatch):
    """A list that records the bins of every kernel call from now on."""
    kernel, widths = equivocation._types, []

    def spy_kernel(block, zs, n):
        widths.append(block.shape[1])
        return kernel(block, zs, n)

    monkeypatch.setattr(equivocation, "_types", spy_kernel)
    return widths


def test_curve_chunks_agree_with_one_pass(monkeypatch):
    """Splitting observations, bins and weight rows into small blocks changes nothing
    past 1e-12 against one pass and the per-word oracle.  A coset table's z = 0 is cut
    into slices of about _CHUNK_CELLS words, one bin at least: at 24 cells the (3,3)
    table spans slices of 3, 3 and 2 bins and the (1,7) table eleven, and at 5 cells
    every bin of the (3,3) tables is gathered on its own.  The certified (1,7) curve
    takes no kernel call (its 18 column-type terms undercut its 256 words), so its
    slices are those of conditional_equivocation at z = 0, which prices them alike."""
    grid = [0.03, 0.2, 0.37, 0.5]
    tables = [next(sample_binning(3, 3, seed=8)), standard_table(3, 3), xor_translate(standard_table(1, 7), 0x5B)]
    whole = [equivocation_curve(t, grid).bits for t in tables]
    oracle = [[sum(entropy_bits(bin_posteriors_direct(t, z, p)) for z in range(1 << t.n)) / (1 << t.n)
               for p in grid] for t in tables]
    profile = distance_profile(tables[0], 5)
    widths = _kernel_widths(monkeypatch)
    for cells in (100, 24, 5):
        monkeypatch.setattr(equivocation, "_CHUNK_CELLS", cells)
        for t, want, exact in zip(tables, whole, oracle):
            widths.clear()
            curve = equivocation_curve(t, grid)
            assert np.allclose(curve.bits, want, rtol=0, atol=1e-12)
            assert np.allclose(curve.bits, exact, rtol=0, atol=1e-12)
            if curve.route == "coset":
                width = max(1, cells >> t.l)
                slices = [min(width, len(t.array) - c) for c in range(0, len(t.array), width)]
                assert widths == ([] if t.l == 1 else slices)
                widths.clear()
                assert abs(conditional_equivocation(t, 0, grid[1]) - exact[1]) <= 1e-12
                assert widths == slices
        assert distance_profile(tables[0], 5).tolist() == profile.tolist()
    assert [equivocation_curve(t, grid).route for t in tables] == ["full", "coset", "coset"]


def test_every_gather_stays_within_the_chunk_budget(monkeypatch):
    """Over a 1,001-point grid no kernel call exceeds _CHUNK_CELLS distance cells: it
    takes whole tables at several observations, or one observation of a slice of
    bins (the (4,13) table's z = 0 in two).  The two coset tables' generators have
    so many column types that counting by them would take more terms than the
    tables have words, so the kernel prices them.  The full route gathers z < 2**(n-1), in
    order, and prices each call's rows also at the reversed weight rows (the
    profiles of the complements z ^ (2**n - 1) are the reversed ones), so every
    observation meets every bin once.  Every call's rows are priced at every grid
    point, in grid order, and no slab holds more than weight rows x profiles of
    about _CHUNK_CELLS >> 4 values, or a single grid row."""
    grid = [float(p) for p in np.linspace(0.0, 0.5, 1001)]
    tables = [next(sample_binning(2, 5, seed=3)), next(sample_binning(2, 8, seed=3)),
              coset_table_of(4, range(1, 13)), coset_table_of(4, [*range(1, 16), 3, 5])]
    want = [equivocation_curve(t, grid).bits for t in tables]
    kernel, price, slabs = equivocation._types, equivocation.objective_coefficients, equivocation._block_bits
    calls, priced, yielded = [], [], []

    def spy_kernel(block, zs, n):
        assert block.size * len(zs) <= equivocation._CHUNK_CELLS
        assert len(zs) == 1 or block.size == 1 << n
        calls.append((zs.tolist(), block.shape[1]))
        return kernel(block, zs, n)

    def spy_price(rows, gamma):
        # a block of one table: a slab holds len(gamma) x max(1, profiles) values, or
        # one grid row (with its reversal on the full route)
        one_row = len(gamma) == 1 or (len(gamma) == 2 and np.array_equal(gamma[1], gamma[0, ::-1]))
        assert one_row or len(gamma) * max(1, len(rows)) <= equivocation._CHUNK_CELLS >> 4
        priced.append(gamma)
        return price(rows, gamma)

    def spy_slabs(block, coset, gammas, z, columns=None):
        for j, bits in slabs(block, coset, gammas, z, columns):
            # a full-route slab prices each of its grid rows twice
            assert bits.shape == (len(priced[-1]) // (1 if coset[0] else 2), 1)
            yielded.append(j)
            yield j, bits

    monkeypatch.setattr(equivocation, "_types", spy_kernel)
    monkeypatch.setattr(equivocation, "objective_coefficients", spy_price)
    monkeypatch.setattr(equivocation, "_block_bits", spy_slabs)
    for t, bits, route in zip(tables, want, ("full", "full", "coset", "coset")):
        calls.clear()
        priced.clear()
        yielded.clear()
        curve = equivocation_curve(t, grid)
        forward = priced
        if route == "full":
            forward = [g[: len(g) // 2] for g in priced]
            assert all(np.array_equal(g, np.concatenate([h, h[:, ::-1]])) for g, h in zip(priced, forward))
        assert curve.route == route
        assert curve.bits.tolist() == bits.tolist()
        count = 1 << t.n - 1 if route == "full" else 1
        slices = -(-(1 << t.n) // equivocation._CHUNK_CELLS)
        chunks = -(-count // max(1, equivocation._CHUNK_CELLS >> t.n)) * slices
        assert len(calls) == chunks and (chunks > 1) == ((count << t.n) > equivocation._CHUNK_CELLS)
        assert (slices > 1) == (t.n >= 17)
        assert list(dict.fromkeys(z for zs, _ in calls for z in zs)) == list(range(count))
        met = {}
        for zs, width in calls:
            for z in zs:
                for seen in (z, z ^ (1 << t.n) - 1) if route == "full" else (z,):
                    met[seen] = met.get(seen, 0) + width
        assert sorted(met) == list(range(2 * count if route == "full" else 1))
        assert set(met.values()) == {len(t.array)}
        # a full-route slab is its grid rows, then the same rows reversed
        assert np.array_equal(np.concatenate(forward), np.tile(equivocation._weight_rows(grid, t.n), (chunks, 1)))
        # the last chunk's slabs are yielded, in grid order, and split the grid
        assert len(yielded) > 1
        assert yielded == np.cumsum([0] + [len(g) for g in forward[-len(yielded) :]])[:-1].tolist()


def test_ungrouped_profiles_match_the_oracle_in_one_chunk_and_in_many(monkeypatch):
    """Past the int64 key ((2**l + 1)**(n+1) >= 2**63) every cell is its own group:
    a random (7,1) table on the full route and a (6,4) coset table still give the
    per-word average, also when the observations are split into many chunks and
    one observation into bin slices, down to one bin where a bin alone passes the
    budget."""
    grid = [0.0, 0.03, 0.2, 0.5]
    tables = [next(sample_binning(7, 1, seed=2)), coset_table(build_codec(6, 4))]
    for t in tables:
        assert ((1 << t.l) + 1) ** (t.n + 1) >= 1 << 63
    oracle = [[sum(entropy_bits(bin_posteriors_direct(t, z, p)) for z in range(1 << t.n)) / (1 << t.n)
               for p in grid] for t in tables]
    widths = _kernel_widths(monkeypatch)
    # z = 0 of the (6,4) table in one slice, in slices of 4 bins, and bin by bin
    for cells, slices in ((equivocation._CHUNK_CELLS, [16]), (300, [4] * 4), (100, [1] * 16)):
        monkeypatch.setattr(equivocation, "_CHUNK_CELLS", cells)
        for t, want, route in zip(tables, oracle, ("full", "coset")):
            widths.clear()
            curve = equivocation_curve(t, grid)
            assert curve.route == route
            assert np.allclose(curve.bits, want, rtol=0, atol=1e-12)
        assert widths == slices
    # at (4,12) the key of a bin holding the all-ones word would pass 2**63; the
    # reference is the entropy of the posterior at z = 0, which never reaches _types
    wide = standard_table(4, 12)
    want = [entropy_bits(bin_posteriors(wide, 0, p)) for p in grid]
    assert np.allclose(equivocation_curve(wide, grid).bits, want, rtol=0, atol=1e-12)


def test_ensemble_bits_folds_uncopied_kernel_views_of_every_block(monkeypatch):
    """ensemble_bits certifies each block once (one _certify call) and hands it whole
    to _block_bits, which cuts each route, in block order, into groups of
    max(1, _CHUNK_CELLS // (observations x 2**n)) tables, each one kernel call of at
    most _CHUNK_CELLS cells: the coset route at z = 0, the full route at z < 2**(n-1).
    A route that takes a whole block reads uncopied views of it.  The max, sum and min
    in bits and the route counts equal those of per-table equivocation_curve, also over
    blocks that mix routes; an empty block, and no block at all, fold to nothing."""
    grid = [0.0, 0.07, 0.25, 0.41, 0.5]
    tables = list(enumerate_binnings(2, 1))
    # two blocks that mix routes, one of full-route tables alone, and an empty one
    parts = [tables[:50], tables[50:], [t for t in tables if not is_coset_table(t)][:8], []]
    blocks = [np.array([t.array for t in part], dtype=np.uint32).reshape(-1, 2, 4) for part in parts]
    ensemble = [t for part in parts for t in part]
    bits = np.array([equivocation_curve(t, grid).bits for t in ensemble])
    routes = [equivocation_curve(t, [0.1]).route for t in ensemble]
    mask, kernel, certified, calls = equivocation._certify, equivocation._types, [], []

    def spy_mask(block):
        certified.append(block)
        return mask(block)

    def spy_kernel(block, zs, n):
        assert block.size * len(zs) <= equivocation._CHUNK_CELLS
        calls.append((len(certified), len(block), zs.tolist()))
        if len(certified) == 3:
            assert np.shares_memory(block, blocks[2])
        return kernel(block, zs, n)

    # 2**9 cells make coset groups of 2**9 // 8 = 64 tables and full groups of
    # 2**9 // (4 x 8) = 16
    monkeypatch.setattr(equivocation, "_CHUNK_CELLS", 1 << 9)
    monkeypatch.setattr(equivocation, "_certify", spy_mask)
    monkeypatch.setattr(equivocation, "_types", spy_kernel)
    top, total, bottom, counted = ensemble_bits(iter(blocks), 3, grid)
    assert len(certified) == len(blocks) and all(c is b for c, b in zip(certified, blocks))
    # per block: its coset tables at z = 0, then its other tables at z = 0..3, 16 at a time
    starts = np.cumsum([0] + [len(part) for part in parts])
    want = []
    for i in range(len(blocks)):
        mixed = routes[starts[i] : starts[i + 1]]
        for route, stride, zs in (("coset", 64, [0]), ("full", 16, [0, 1, 2, 3])):
            members = mixed.count(route)
            want += [(i + 1, min(stride, members - g), zs) for g in range(0, members, stride)]
    assert calls == want
    # the first block's full route spans several groups, and its coset route one
    assert [c[0] for c in calls].count(1) > 2 and (1, routes[:50].count("coset"), [0]) in calls
    assert counted == {"coset": routes.count("coset"), "full": routes.count("full")}
    assert total.dtype == np.longdouble and len(top) == len(total) == len(bottom) == len(grid)
    assert np.allclose(top, bits.max(0), rtol=0, atol=1e-12)
    assert np.allclose(total.astype(float), bits.sum(0), rtol=0, atol=1e-10)
    assert np.allclose(bottom, bits.min(0), rtol=0, atol=1e-12)
    # an empty block alone, and no block at all, fold to nothing
    for empty in ([blocks[3]], []):
        top, total, bottom, counted = ensemble_bits(empty, 3, grid)
        assert counted == {"coset": 0, "full": 0} and np.all(top == -np.inf) and np.all(total == 0)


def test_certificate_gathers_in_chunks_of_bins(monkeypatch):
    """Chunking the certificate over bins changes no verdict, also for coset tables
    whose bin holding 0 is not bin 0 and in views that mix coset and other tables."""
    tables = [t for t in _family_and_coset_tables(8)] + list(sample_binning(2, 4, seed=3, count=50))
    tables.append(CodeTable(2, 1, [[0, 1, 2, 7], [4, 5, 6, 3]]))
    # coset tables with 0 in a later bin: a translate, and the bins reversed; then
    # each with one word exchanged between its first two bins, which no coset table is
    base = standard_table(2, 4)
    moved = [xor_translate(base, 0b100101), CodeTable(2, 4, base.array[::-1])]
    for t in list(moved):
        bins = t.bins
        bins[0][-1], bins[1][0] = bins[1][0], bins[0][-1]
        moved.append(CodeTable(2, 4, bins))
    assert all(0 not in t.array[0] for t in moved)
    tables += moved
    want = [is_coset_table(t) for t in tables]
    assert want == [unit_vector_certificate(t) for t in tables]
    assert want[-4:] == [True, True, False, False]
    same = [i for i, t in enumerate(tables) if (t.l, t.k) == (2, 4)]
    block = np.stack([tables[i].array for i in same])
    monkeypatch.setattr(equivocation, "_CHUNK_CELLS", 5)
    # fresh copies: a table keeps the verdict of its first certificate
    assert [is_coset_table(CodeTable(t.l, t.k, t.array)) for t in tables] == want
    # one block of every (2,4) table: coset and non-coset tables side by side
    assert equivocation._certify(block)[0].tolist() == [want[i] for i in same]
    assert 0 < sum(want[i] for i in same) < len(same)
    assert 10 < sum(want) < len(want) - 10


def test_coset_route_memory_is_a_few_chunks_at_any_blocklength():
    """Beside the table, is_coset_table holds at most 8, and a two-point curve and
    conditional_equivocation at z = 5 at most 32 bytes per _CHUNK_CELLS cell (0.5 and
    2 MB) from n = 16 to n = 20, on the int64-key path at l = 2 and past it at l = 4,
    where every cell is its own group: nothing of size 2**n is allocated (a 2**n word
    -> bin map alone would be 2 MB at (4,16)).  bin_posteriors holds its output and at
    most 64 bytes per cell beside it: the whole (2**k, n+1) profile is never held."""
    for form in ((2, 14), (2, 18), (4, 12), (4, 16)):
        t = standard_table(*form)
        assert (((1 << t.l) + 1) ** (t.n + 1) < 1 << 63) == (t.l == 2)
        assert peak_bytes(lambda: is_coset_table(t), warm=True) <= 8 * equivocation._CHUNK_CELLS
        assert peak_bytes(lambda: equivocation_curve(t, [0.1, 0.3]), warm=True) <= 32 * equivocation._CHUNK_CELLS
        assert peak_bytes(lambda: conditional_equivocation(t, 5, 0.1), warm=True) <= 32 * equivocation._CHUNK_CELLS
        output = 8 * len(t.array)
        assert peak_bytes(lambda: bin_posteriors(t, 5, 0.1), warm=True) <= output + 64 * equivocation._CHUNK_CELLS


def test_curve_rejects_invalid_tables_and_crossovers():
    with pytest.raises(ValueError):
        equivocation_curve(CodeTable(1, 1, [[0, 1], [2, 2]]), [0.1])
    with pytest.raises(ValueError):
        is_coset_table(CodeTable(1, 1, [[0, 1], [2]]))
    with pytest.raises(ValueError):
        equivocation_curve(make((1, 1)), [0.2, 1.5])
    assert equivocation_curve(make((1, 1)), []).bits.tolist() == []


def test_crossovers_are_read_as_their_exact_floats():
    """A numpy float32, float16 or float64 crossover, or an int one, gives the curve of
    the Python float of the same value bit for bit, on both routes; a string still raises."""
    tables = (standard_table(2, 10), next(sample_binning(2, 2, seed=7)))
    for kind in (np.float32, np.float16, np.float64):
        grid = [kind(v) for v in (0.0, 0.1, 0.37, 0.5, 0.8, 1.0)]
        floats = [float(p) for p in grid]
        assert channel_weights(grid[1], 12).tobytes() == channel_weights(floats[1], 12).tobytes()
        for t in tables:
            assert equivocation_curve(t, grid).bits.tobytes() == equivocation_curve(t, floats).bits.tobytes()
    for t in tables:
        assert equivocation_curve(t, [0, 1]).bits.tobytes() == equivocation_curve(t, [0.0, 1.0]).bits.tobytes()
    with pytest.raises(TypeError):
        equivocation_curve(tables[0], ["0.1"])


def unit_vector_certificate(t):
    """Reference: XOR by each of the n unit vectors maps bins onto bins.

    Unit vectors generate every word, so this holds iff every translate
    of the partition is the partition, i.e. iff the bins are the cosets
    of one subgroup.  O(n * 2**n); the oracle for is_coset_table.
    """
    words = np.asarray(t.bins, dtype=np.uint32)
    bin_of = np.empty(1 << t.n, dtype=np.int32)
    bin_of[words] = np.arange(len(words), dtype=np.int32)[:, None]
    for j in range(t.n):
        image = bin_of[words ^ (1 << j)]
        if (image != image[:, :1]).any():
            return False
    return True


def test_certificate_equals_the_unit_vector_oracle():
    """is_coset_table agrees with the unit-vector test on every table shape it is cheap to list."""
    rng = random.Random(29)
    tables = list(enumerate_binnings(2, 1)) + list(enumerate_binnings(1, 2))
    tables.append(CodeTable(2, 1, [[0, 1, 2, 7], [4, 5, 6, 3]]))
    for t in _family_and_coset_tables(10):
        bins = t.bins
        rng.shuffle(bins)
        for b in bins:
            rng.shuffle(b)
        permuted = CodeTable(t.l, t.k, bins)
        # one word exchanged between the first two bins: a coset table only by accident
        bins = t.bins
        bins[0][-1], bins[1][0] = bins[1][0], bins[0][-1]
        tables += [t, permuted, xor_translate(permuted, rng.randrange(1 << t.n)), CodeTable(t.l, t.k, bins)]
    # random tables: almost none are coset tables, and most already differ
    # in the difference sets of their first two bins
    for form in ((3, 2), (2, 4)):
        tables += sample_binning(*form, seed=31, count=200)
    verdicts = [is_coset_table(t) for t in tables]
    assert verdicts == [unit_vector_certificate(t) for t in tables]
    # both answers occur in number, so the agreement is not one-sided
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_channel_weights_do_not_underflow_near_either_endpoint():
    n = 24
    t = standard_table(4, 20)
    for p in (1e-12, 1 - 1e-12, 1 - 1e-14):
        gamma = channel_weights(p, n)
        assert abs(sum(math.comb(n, d) * gamma[d] for d in range(n + 1)) - 1.0) < 1e-12
        for z in (0, 0xABCDE):
            assert abs(bin_posteriors(t, z, p).sum() - 1.0) < 1e-12


# every form with n <= 7 whose LP has at most 25,000 candidate rows: l <= 3, and (4,1)
TYPE_FORMS = [(l, n - l) for n in range(1, 8) for l in range(n) if math.comb((1 << l) + n, n) <= 25_000]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TYPE_FORMS), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_type_counts_give_the_per_word_equivocation(form, seed, p, shuffle):
    """The method of types on random tables: A x = b holds for every observation's rows,
    the curve is the per-word average, stays under the LP ceiling, and is symmetric in p
    and invariant under bin permutation and XOR translation."""
    l, k = form
    n = l + k
    t = CodeTable(l, k, np.random.default_rng(seed).permutation(1 << n).reshape(1 << k, 1 << l))
    profiles = equivocation._profiles(t.array[None], np.arange(1 << n, dtype=np.uint32), n).reshape(1 << n, 1 << k, n + 1)
    assert (profiles.sum(axis=2) == 1 << l).all()
    assert (profiles.sum(axis=1) == [math.comb(n, d) for d in range(n + 1)]).all()
    grid = [p, 1.0 - p]
    bits = equivocation_curve(t, grid).bits
    for q, h in zip(grid, bits):
        oracle = sum(entropy_bits(bin_posteriors_direct(t, z, q)) for z in range(1 << n)) / (1 << n)
        assert abs(h - oracle) <= 1e-12
    assert abs(bits[0] - bits[1]) <= 1e-12
    assert bits[0] <= lp_limit_curve(l, k, [p]).upper[0] + 1e-9
    rng = np.random.default_rng(shuffle)
    moved = xor_translate(CodeTable(l, k, rng.permutation(t.array)), int(rng.integers(1 << n)))
    assert np.allclose(equivocation_curve(moved, grid).bits, bits, rtol=0, atol=1e-12)


MONOTONE_FORMS = [(l, n - l) for n in range(1, 8) for l in range(n)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MONOTONE_FORMS),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.0, 0.5), min_size=1, max_size=12),
    st.randoms(use_true_random=False),
)
def test_equivocation_is_nondecreasing_up_to_one_half(form, seed, points, shuffle):
    """BSC(p2) is a degraded BSC(p1) when p1 < p2 <= 1/2, so H(M|Z) cannot fall on [0, 1/2];
    the grid is evaluated in shuffled order and read back sorted."""
    l, k = form
    t = CodeTable(l, k, np.random.default_rng(seed).permutation(1 << (l + k)).reshape(1 << k, 1 << l))
    grid = points + [0.0, 0.5]
    shuffle.shuffle(grid)
    bits = equivocation_curve(t, grid).bits
    ordered = bits[np.argsort(grid, kind="stable")]
    assert (np.diff(ordered) >= -1e-12).all()
    assert 0.0 <= ordered[0] and ordered[-1] <= k + 1e-12
