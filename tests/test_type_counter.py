"""The second type counter: a certified coset table's z = 0 distance profiles
from its generator's column types, against the kernel that gathers its words.

The counter must give exactly the kernel's (rows, counts) at z = 0, merged by
key across bin slices (no tolerance), and then the same curve: bit for bit
where the kernel groups by key in one chunk, within 1e-12 relative anywhere.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from wiretap import equivocation
from wiretap.baselines import _enumerate_blocks, compare_form
from wiretap.bitcore import CapExceeded, CodeTable, xor_translate
from wiretap.equivocation import (
    coset_code_curve,
    ensemble_bits,
    equivocation_curve,
    is_coset_table,
    total_equivocation_linear,
)
from wiretap.ni_code import closed_form_table, standard_table

from coset_codes import columns_of, compositions, coset_table_of
from traced_peak import peak_bytes

GRID = [0.0, 0.02, 0.1, 0.25, 0.45, 0.5, 0.8, 1.0]


def merged(rows, counts):
    """Profiles merged by key, in key order (lexicographic from the top distance)."""
    keys, group = np.unique(rows[:, ::-1], axis=0, return_inverse=True)
    return keys[:, ::-1], np.bincount(group.ravel(), weights=counts)


def kernel_z0(t):
    """The kernel's z = 0 profiles of t, gathered a bin slice at a time, merged by key."""
    width = equivocation._bins_per_slice(t.array[None])
    parts = [equivocation._types(t.array[None, c : c + width], np.zeros(1, dtype=np.uint32), t.n)
             for c in range(0, len(t.array), width)]
    return merged(np.concatenate([r for r, _ in parts]), np.concatenate([c[0] for _, c in parts]))


def counter_chunks(l, columns):
    types, m = np.unique(columns, return_counts=True)
    return list(equivocation._type_profiles(l, types, m))


def counter_z0(l, columns):
    chunks = counter_chunks(l, columns)
    rows, counts = np.concatenate([r for r, _ in chunks]), np.concatenate([c[0] for _, c in chunks])
    return merged(rows, counts) if len(chunks) > 1 else (rows, counts)


def assert_same_profiles(t, columns):
    rows, counts = counter_z0(t.l, columns)
    want_rows, want_counts = kernel_z0(t)
    assert rows.dtype == counts.dtype == float
    assert rows.shape == want_rows.shape and (rows == want_rows).all(), (t.l, t.k)
    assert (counts == want_counts).all(), (t.l, t.k)
    # every bin counted once, every word once at each distance
    assert counts.sum() == len(t.array)
    assert (counts @ rows == [math.comb(t.n, d) for d in range(t.n + 1)]).all()


def terms(t):
    _, columns = equivocation._certificate(t)
    _, m = np.unique(columns[0], return_counts=True)
    return equivocation._type_blocks(t.l, m).stop << t.l


def kernel_curve(t, grid):
    """t's curve at z = 0 through the kernel alone (the certificate's types withheld)."""
    gammas = equivocation._weight_rows(grid, t.n)
    bits = np.empty(len(gammas))
    for j, h in equivocation._block_bits(t.array[None], np.ones(1, dtype=bool), gammas, 0):
        bits[j : j + len(h)] = h[:, 0]
    return bits


def family_tables(max_n):
    for n in range(2, max_n + 1):
        for l in range(n):
            yield standard_table(l, n - l)
            if l >= 1:
                yield closed_form_table(l, n - l)


def test_counter_equals_the_kernel_on_every_family_table_up_to_n16():
    """Every standard_table and closed_form_table with n <= 16 is a coset table; on
    each whose types take at most 2**16 terms (every one the route rule gives the
    counter, since that takes fewer terms than 2**n words), the counter's profiles
    and counts equal the kernel's exactly.  The counter's curve equals the kernel's
    bit for bit where the kernel groups by key in one chunk, and within 1e-12
    relative elsewhere; equivocation_curve takes the counter exactly when it is the
    cheaper count."""
    checked = counted = 0
    for t in family_tables(16):
        assert is_coset_table(t)
        size = terms(t)
        if size > 1 << 16:
            continue
        columns = equivocation._certificate(t)[1][0]
        assert_same_profiles(t, columns)
        checked += 1
        cheaper = size < 1 << t.n
        counted += cheaper
        if not cheaper:
            continue
        bits, want = equivocation_curve(t, GRID).bits, kernel_curve(t, GRID)
        single = len(counter_chunks(t.l, columns)) == 1 and t.n <= 16
        keyed = ((1 << t.l) + 1) ** (t.n + 1) < 1 << 63
        if single and keyed:
            assert bits.tobytes() == want.tobytes(), (t.l, t.k)
        else:
            assert np.allclose(bits, want, rtol=1e-12, atol=0), (t.l, t.k)
    assert checked > 150 and counted > 90


def test_counter_equals_the_kernel_on_every_rank_l_composition():
    """Coset tables of every column composition of rank l, l <= 2 at n <= 12 and
    l = 3 at n <= 8, zero columns included: the counter on the composition itself
    gives the kernel's profiles and counts exactly, in under 10 s."""
    start = time.monotonic()
    seen = 0
    for l, top in ((0, 12), (1, 12), (2, 12), (3, 8)):
        for n in range(l + 1, top + 1):
            for counts in compositions(1 << l, n):
                if not _spans([t for t, c in enumerate(counts) if c], l):
                    continue
                columns = columns_of(counts)
                assert_same_profiles(coset_table_of(l, columns), columns)
                seen += 1
    assert seen > 9000 and time.monotonic() - start < 10.0


def _spans(types, l):
    # GF(2) rank of the types is l
    span = {0}
    for t in types:
        span |= {s ^ t for s in span}
    return len(span) == 1 << l


def test_counter_equals_the_kernel_at_n24_and_on_the_wide_table():
    """(2,22), (1,23) and (4,16): the counter's profiles equal the kernel's merged over
    its bin slices, and the curves agree within 1e-12 relative."""
    for form in ((2, 22), (1, 23), (4, 16)):
        t = standard_table(*form)
        assert terms(t) < 1 << t.n
        assert_same_profiles(t, equivocation._certificate(t)[1][0])
        grid = [0.05, 0.1, 0.3]
        assert np.allclose(equivocation_curve(t, grid).bits, kernel_curve(t, grid), rtol=1e-12, atol=0)


def test_family_column_types_are_l_independent_types_and_k_copies_of_their_xor():
    """Every standard_table with l >= 1 and n <= 16 (120 forms) is certified with
    the generator columns of the l unit vectors and k all-ones columns, after a
    change of basis: n copies of type 1 at l = 1, else l + 1 distinct types of
    rank l that XOR to zero (so each is the XOR of the other l, which are
    independent), one held k times and the others once."""
    forms = [(l, n - l) for n in range(2, 17) for l in range(1, n)]
    assert len(forms) == 120
    for l, k in forms:
        coset, columns = equivocation._certificate(standard_table(l, k))
        assert coset[0], (l, k)
        types, m = np.unique(columns[0], return_counts=True)
        if l == 1:
            assert types.tolist() == [1] and m.tolist() == [l + k], (l, k)
            continue
        assert len(types) == l + 1 and sorted(m.tolist()) == sorted([1] * l + [k]), (l, k)
        assert np.bitwise_xor.reduce(types) == 0 and _spans(types.tolist(), l), (l, k)


def test_counter_equals_the_kernel_at_l3_n24():
    """standard_table(3, 21): the counter's curve (its certified column types)
    against the kernel route with the types withheld, within 1e-12 relative."""
    t = standard_table(3, 21)
    grid = [0.02, 0.1, 0.25, 0.45]
    assert terms(t) < 1 << t.n
    assert np.allclose(equivocation_curve(t, grid).bits, kernel_curve(t, grid), rtol=1e-12, atol=0)


def test_one_key_width_rule_for_both_counters():
    """_key_width(base) is the most distances whose counts make one int64 key:
    base**w < 2**63 <= base**(w + 1), for every base 2**l + 1 either counter meets."""
    for l in range(25):
        base = (1 << l) + 1
        width = equivocation._key_width(base)
        assert base ** width < 1 << 63 <= base ** (width + 1), l


def test_counter_blocks_stay_within_the_chunk_budget(monkeypatch):
    """With a small _CHUNK_CELLS the counter runs in blocks of at most that many terms
    and profile cells (one tuple at least); merged, they are the kernel's profiles,
    and the curve summed over them agrees with the one-block curve within 1e-12."""
    t = coset_table_of(3, [1, 2, 4, 3, 3, 5, 6, 7, 7, 7])
    columns = equivocation._certificate(t)[1][0]
    grid = [0.03, 0.2, 0.41]
    whole = equivocation_curve(t, grid).bits
    assert len(counter_chunks(3, columns)) == 1
    monkeypatch.setattr(equivocation, "_CHUNK_CELLS", 64)
    blocks = equivocation._type_blocks(3, np.unique(columns, return_counts=True)[1])
    assert blocks.step == 64 // 11 and len(blocks) > 10
    chunks = counter_chunks(3, columns)
    assert len(chunks) == len(blocks)
    assert blocks.step * max(1 << 3, t.n + 1) <= 64 and all(c.shape == (1, len(r)) for r, c in chunks)
    assert_same_profiles(t, columns)
    assert np.allclose(equivocation_curve(CodeTable(3, 7, t.array), grid).bits, whole, rtol=1e-12, atol=0)


def spy_kernel_and_counter(monkeypatch):
    kernel, counter, calls = equivocation._types, equivocation._type_profiles, []

    def spy_kernel(block, zs, n):
        calls.append(("kernel", len(block)))
        return kernel(block, zs, n)

    def spy_counter(l, types, m):
        calls.append(("counter", tuple(sorted(m.tolist()))))
        return counter(l, types, m)

    monkeypatch.setattr(equivocation, "_types", spy_kernel)
    monkeypatch.setattr(equivocation, "_type_profiles", spy_counter)
    return calls


def test_route_rule_takes_the_counter_only_below_2_to_the_n_terms(monkeypatch):
    """The (2,10) family table has 176 terms against 4,096 words and takes the counter
    with no kernel call; the (3,2) family has 192 terms against 32 words and keeps the
    kernel, as does conditional_equivocation at z = 0 of a certified table and every
    table off the coset route.  total_equivocation_linear takes the curve's route."""
    calls = spy_kernel_and_counter(monkeypatch)
    wide, small = standard_table(2, 10), standard_table(3, 2)
    assert (terms(wide), terms(small)) == (176, 192)
    equivocation_curve(wide, [0.1, 0.2])
    assert calls == [("counter", (1, 1, 10))]
    calls.clear()
    total_equivocation_linear(wide, 0.1)
    assert calls == [("counter", (1, 1, 10))]
    calls.clear()
    equivocation_curve(small, [0.1])
    equivocation.conditional_equivocation(wide, 0, 0.1)
    assert calls == [("kernel", 1), ("kernel", 1)]


def test_ensemble_counts_each_column_multiset_once(monkeypatch):
    """Every (0,3) table is a coset table of one column multiset (three columns of the
    type 0 in F_2**0), 4 terms against 8 words: each enumerated block runs the counter
    once for all of its tables, and max, sum and min equal the kernel's per-table
    values; a block that mixes multisets runs one counter per multiset."""
    grid = [0.0, 0.1, 0.3, 0.5]
    want = kernel_curve(standard_table(0, 3), grid)
    calls = spy_kernel_and_counter(monkeypatch)
    blocks = list(_enumerate_blocks(0, 3))
    top, total, bottom, routes = ensemble_bits(iter(blocks), 3, grid)
    assert calls == [("counter", (3,))] * len(blocks)
    assert routes == {"coset": 40320, "full": 0}
    assert np.allclose(top, want, rtol=1e-12, atol=0) and np.allclose(bottom, want, rtol=1e-12, atol=0)
    assert np.allclose(total.astype(float), 40320 * want, rtol=1e-12, atol=0)
    # one block: two (1,4) coset tables of different multisets, a translate sharing one
    a, b = coset_table_of(1, [1, 1, 1, 1, 1]), coset_table_of(1, [0, 1, 1, 1, 1])
    block = np.stack([a.array, b.array, xor_translate(a, 5).array])
    calls.clear()
    top, total, bottom, routes = ensemble_bits([block], 5, grid)
    assert sorted(calls) == [("counter", (1, 4)), ("counter", (5,))]
    per_table = [equivocation_curve(t, grid).bits for t in (a, b)]
    assert np.allclose(top, np.maximum(*per_table), rtol=1e-12) and np.allclose(bottom, np.minimum(*per_table), rtol=1e-12)


def test_certificate_is_kept_on_the_table(monkeypatch):
    """is_coset_table and equivocation_curve certify a table once: later calls reuse
    the verdict and column types kept on it; a translate is a new table, certified
    anew, and a non-coset table keeps its negative verdict too."""
    certify, certified = equivocation._certify, []

    def spy(block):
        certified.append(len(block))
        return certify(block)

    monkeypatch.setattr(equivocation, "_certify", spy)
    t = standard_table(2, 6)
    assert t._certificate is None
    assert is_coset_table(t)
    coset, columns = t._certificate
    assert coset.tolist() == [True] and sorted(np.unique(columns[0], return_counts=True)[1]) == [1, 1, 6]
    for p in (0.1, 0.2, 0.3):
        equivocation.equivocation_rate(t, p)
    total_equivocation_linear(t, 0.1)
    assert certified == [1]
    moved = xor_translate(t, 9)
    assert is_coset_table(moved) and certified == [1, 1]
    odd = CodeTable(1, 2, [[0b000, 0b111], [0b001, 0b010], [0b011, 0b100], [0b101, 0b110]])
    assert not is_coset_table(odd) and not is_coset_table(odd)
    assert equivocation_curve(odd, [0.1]).route == "full" and certified == [1, 1, 1]


def test_coset_code_curve_equals_the_table_curve():
    """On type counts alone the curve is the coset table's, for the family's column
    multisets and for compositions with zero columns; a change of basis (here the
    certificate's own types) gives the same curve."""
    for l, counts in ((2, (0, 1, 1, 10)), (1, (3, 5)), (3, (1, 1, 1, 0, 1, 2, 0, 1)), (0, (6,)), (2, (2, 1, 0, 4))):
        t = coset_table_of(l, columns_of(counts))
        bits = coset_code_curve(l, counts, GRID)
        assert bits.route == "coset"
        assert np.allclose(bits.bits, kernel_curve(t, GRID), rtol=1e-12, atol=1e-300)
        own = np.bincount(equivocation._certificate(t)[1][0], minlength=1 << l)
        assert np.allclose(coset_code_curve(l, own, GRID).bits, bits.bits, rtol=1e-12, atol=1e-300)


def _mp_equivocation(counts, p):
    # H = 2**-l sum_i prod_t C(m_t, i_t) f(sum_u gamma(d_u(i))) in 50-digit arithmetic
    mpmath.mp.dps = 50
    l = (len(counts) - 1).bit_length()
    n = sum(counts)
    p = mpmath.mpf(p)
    gamma = [p ** d * (1 - p) ** (n - d) for d in range(n + 1)]
    types = [t for t, c in enumerate(counts) if c]
    total = mpmath.mpf(0)
    for digits in np.ndindex(*[counts[t] + 1 for t in types]):
        weight = math.prod(math.comb(counts[t], i) for t, i in zip(types, digits))
        mass = mpmath.fsum(gamma[sum(counts[t] - i if bin(u & t).count("1") % 2 else i for t, i in zip(types, digits))]
                           for u in range(1 << l))
        total += weight * -mass * mpmath.log(mass, 2)
    return total / 2 ** l


def test_coset_code_curve_at_n64_matches_mpmath():
    """The balanced l = 2 code at n = 64 (21, 21 and 22 columns of the three nonzero
    types), far past any table: within 1e-12 relative of a 50-digit recomputation."""
    counts = (0, 21, 21, 22)
    grid = [0.05, 0.25]
    bits = coset_code_curve(2, counts, grid).bits
    for p, h in zip(grid, bits):
        want = _mp_equivocation(counts, p)
        assert abs(h - float(want)) <= 1e-12 * float(want), (p, h, want)
        assert 0.0 < h < 62.0


def test_coset_code_curve_refuses_bad_counts_and_stops_at_its_caps():
    with pytest.raises(ValueError):
        coset_code_curve(2, (1, 2, 3), [0.1])  # not 2**l counts
    with pytest.raises(ValueError):
        coset_code_curve(2, (2, 0, 0, 6), [0.1])  # rank 1
    with pytest.raises(ValueError):
        coset_code_curve(1, (2, -1), [0.1])
    with pytest.raises(ValueError):
        coset_code_curve(2, (0, 1, 1, 0), [0.1])  # n = l: no bin to hide in
    with pytest.raises(TypeError):
        coset_code_curve(1, (1.0, 2), [0.1])
    with pytest.raises(ValueError):
        coset_code_curve(1, (1, 2), [1.5])
    with pytest.raises(ValueError, match="^need l >= 0, got -1$"):
        coset_code_curve(-1, (1,), [0.1])
    for l, counts in ((4, [8] * 16), (1, (0, equivocation.TYPE_N_CAP + 1)), (16, [1] * (1 << 16))):
        start = time.monotonic()
        with pytest.raises(CapExceeded):
            coset_code_curve(l, counts, [0.1])
        assert time.monotonic() - start < 0.1
    # at the blocklength cap the curve is finite and at most k
    bits = coset_code_curve(1, (0, equivocation.TYPE_N_CAP), [0.0, 0.1, 0.5]).bits
    assert np.isfinite(bits).all() and bits[0] == 0.0 and abs(bits[2] - (equivocation.TYPE_N_CAP - 1)) < 1e-9


def test_compare_exhaustive_on_counted_tables_equals_the_kernel(monkeypatch):
    """compare --exhaustive of (0,3), where every table takes the counter, gives the
    record that the kernel gives (the kernel forced by withholding the types)."""
    grid = [0.0, 0.1, 0.3, 0.5]
    record = compare_form(0, 3, grid, exhaustive=True)
    bits = equivocation._block_bits
    monkeypatch.setattr(equivocation, "_block_bits", lambda block, coset, gammas, z, columns=None:
                        bits(block, coset, gammas, z))
    want = compare_form(0, 3, grid, exhaustive=True)
    assert record["routes"] == want["routes"] == {"coset": 40320, "full": 0}
    for row, ref in zip(record["rows"], want["rows"]):
        for key in ("rand_max", "rand_mean", "rand_min"):
            assert abs(row[key] - ref[key]) <= 1e-12 * max(1.0, ref[key])


def test_uncached_certificate_memory_is_a_few_chunks():
    """A table keeps its certificate, so a second is_coset_table call holds nothing;
    the certificate itself, run afresh on the table's words, holds at most 8 bytes
    per _CHUNK_CELLS cell beside the table from n = 16 to n = 20, as the test of the
    coset route's memory asks of is_coset_table."""
    for form in ((2, 14), (2, 18), (4, 12), (4, 16)):
        t = standard_table(*form)
        peak = peak_bytes(lambda: equivocation._certify(t.array[None]), warm=True)
        assert peak <= 8 * equivocation._CHUNK_CELLS, (form, peak)
