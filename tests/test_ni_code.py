import itertools

import pytest

from wiretap.bitcore import (
    N_CAP,
    CapExceeded,
    CodeTable,
    partition_of,
    tables_equal_ordered,
    tables_equal_partition,
)
from wiretap.equivocation import total_equivocation
from wiretap.ni_code import (
    base_table,
    closed_form_ff_bins,
    closed_form_table,
    gray_matrix,
    opposite_pairing_check,
    path_count,
    rahba,
    rasba,
    standard_table,
)

from golden_tables import GOLDEN, GRAY_L2, GRAY_L3, make
from partition_check import is_partition


def permute_bits(t, perm):
    """Reorder bit positions of every word; perm[j] = source position of output bit j."""
    n = t.n

    def move(w):
        bits = [(w >> (n - 1 - i)) & 1 for i in range(n)]
        out = 0
        for j in range(n):
            out = (out << 1) | bits[perm[j]]
        return out

    return CodeTable(t.l, t.k, [[move(w) for w in b] for b in t.bins])


def test_base_table():
    assert tables_equal_ordered(base_table(), make((0, 1)))


def test_rahba_steps_reproduce_goldens():
    assert tables_equal_ordered(rahba(make((0, 1))), make((1, 1)))
    assert tables_equal_ordered(rahba(make((1, 1))), make((2, 1)))
    assert tables_equal_ordered(rahba(make((3, 1))), make((4, 1)))


def test_rasba_steps_reproduce_goldens():
    assert tables_equal_ordered(rasba(make((1, 1))), make((1, 2)))
    assert tables_equal_ordered(rasba(make((1, 2))), make((1, 3)))


def test_recursion_outputs_stay_valid():
    for l in range(0, 7):
        for k in range(1, 8 - l):
            t = standard_table(l, k)
            assert is_partition(rasba(t))
            assert is_partition(rahba(t))


def test_standard_table_matches_goldens_ordered():
    for form in ((0, 1), (1, 1), (2, 1), (1, 2), (1, 3)):
        assert tables_equal_ordered(standard_table(*form), make(form))


def test_standard_table_golden_31_41_same_partition_not_order():
    # the one-message-bit listings agree as partitions; the (3,1)
    # listing enumerates each bin in a weight-sorted word order, which
    # RAHBA of the (2,1) listing does not give, and (4,1) inherits it
    for form in ((3, 1), (4, 1)):
        got = standard_table(*form)
        assert tables_equal_partition(got, make(form))
        assert not tables_equal_ordered(got, make(form))
    grown = rahba(make((2, 1)))
    assert tables_equal_partition(grown, make((3, 1)))
    assert not tables_equal_ordered(grown, make((3, 1)))


def test_standard_22_is_golden_22_up_to_bit_reorder():
    """The (2,2) listing is the recursion output with columns shuffled.

    Not the same partition, but some bit permutation carries one onto
    the other, and a bit permutation never changes the equivocation.
    """
    got = standard_table(2, 2)
    want = make((2, 2))
    assert not tables_equal_partition(got, want)
    hits = [
        perm
        for perm in itertools.permutations(range(4))
        if partition_of(permute_bits(got, perm)) == partition_of(want)
    ]
    assert hits
    for p in (0.1, 0.3, 0.45):
        assert abs(total_equivocation(got, p) - total_equivocation(want, p)) < 1e-12
    # and no single documented step from a neighbouring listing reaches it
    assert not tables_equal_partition(rasba(make((2, 1))), want)
    assert not tables_equal_partition(rahba(make((1, 2))), want)


def test_golden_32_is_a_distinct_stronger_table():
    """The (3,2) listing is RASBA of the listed (3,1) words, bins reordered.

    Growing the (3,1) listing by one RASBA step gives the (3,2) listing
    word for word, with its bins in the order 1, 3, 2, 4.  From the
    recursion's own (3,1) word order it is unreachable: no bit
    permutation combined with a translation maps any of the four growth
    orders onto it.  Its equivocation is strictly higher than the
    standard table's.  Values frozen from this engine.
    """
    want = make((3, 2))
    assert is_partition(want)

    grown = rasba(make((3, 1)))
    assert tables_equal_partition(grown, want)
    assert [grown.bins[i] for i in (0, 2, 1, 3)] == want.bins

    paths = []
    for order in set(itertools.permutations("hhhs")):
        t = base_table()
        for step in order:
            t = rahba(t) if step == "h" else rasba(t)
        paths.append(t)
    assert all(t.l == 3 and t.k == 2 for t in paths)

    target = partition_of(want)
    for t in paths:
        assert partition_of(t) != target
        for perm in itertools.permutations(range(5)):
            moved = permute_bits(t, perm)
            for z in range(32):
                shifted = frozenset(
                    frozenset(w ^ z for w in b) for b in moved.bins
                )
                assert shifted != target

    h_std = total_equivocation(standard_table(3, 2), 0.1)
    h_gold = total_equivocation(want, 0.1)
    assert abs(h_std - 1.5256419126579286) < 1e-9
    assert abs(h_gold - 1.5364848424194073) < 1e-9
    assert h_gold > h_std + 0.01


def test_path_count_examples():
    assert path_count((1, 1), (1, 4)) == 1
    assert path_count((1, 1), (3, 1)) == 1
    assert path_count((1, 1), (2, 2)) == 2
    assert path_count((2, 2), (3, 4)) == 3
    assert path_count((1, 1), (1, 1)) == 1


def test_path_count_domain():
    with pytest.raises(ValueError):
        path_count((0, 1), (1, 1))
    with pytest.raises(ValueError):
        path_count((2, 2), (1, 3))
    with pytest.raises(ValueError):
        path_count((1, 2), (2, 1))


def test_gray_matrix_fixtures():
    assert gray_matrix(1).tolist() == [[0], [1]]
    assert gray_matrix(2).tolist() == GRAY_L2.tolist()
    assert gray_matrix(3).tolist() == GRAY_L3.tolist()


def test_gray_matrix_properties():
    for l in range(1, 7):
        mat = gray_matrix(l)
        assert mat.shape == (1 << l, l)
        assert not mat[0].any()
        rows = [tuple(r) for r in mat.tolist()]
        assert len(set(rows)) == len(rows)
        for a, b in zip(mat, mat[1:]):
            assert int((a != b).sum()) == 1
    with pytest.raises(ValueError):
        gray_matrix(0)


def test_closed_form_ff_bins_match_goldens():
    b1, b2 = closed_form_ff_bins(1)
    assert (b1, b2) == ([0b00, 0b11], [0b01, 0b10])
    b1, b2 = closed_form_ff_bins(2)
    assert [b1, b2] == GOLDEN[(2, 1)]
    b1, b2 = closed_form_ff_bins(3)
    assert set(b1) == set(GOLDEN[(3, 1)][0])
    assert set(b2) == set(GOLDEN[(3, 1)][1])


def test_closed_form_equals_standard_path():
    # the direct construction reproduces the recursion bin for bin
    for l in range(1, 6):
        for k in range(1, 8 - l):
            assert tables_equal_ordered(closed_form_table(l, k), standard_table(l, k))


def test_closed_form_domain():
    with pytest.raises(ValueError):
        closed_form_table(0, 3)
    with pytest.raises(ValueError):
        closed_form_ff_bins(0)


def test_opposite_pairing():
    for k in range(1, 8):
        assert opposite_pairing_check(standard_table(1, k))
    assert opposite_pairing_check(make((1, 2)))
    assert opposite_pairing_check(make((1, 3)))
    assert not opposite_pairing_check(CodeTable(1, 1, [[0b00, 0b01], [0b10, 0b11]]))
    with pytest.raises(ValueError):
        opposite_pairing_check(make((2, 1)))


def _start_forms(max_result_n):
    for l in range(0, max_result_n - 1):
        for k in range(1, max_result_n - 1 - l + 1):
            if l + k + 2 <= max_result_n:
                yield l, k


def test_single_step_growth_orders_commute():
    """Stated family property: one RAHBA and one RASBA step commute.

    Checked as partitions for every start with result blocklength <= 6,
    with equivocation agreement within 1e-9 on the grid (gaps up to
    1e-4 are flagged rather than failed).  The two orders append their
    new bits in swapped coordinates, so the last two coordinates of
    RASBA(RAHBA(t)) are exchanged before comparing.  Even so, with
    RAHBA's consecutive pairing (bin 2i-1 with bin 2i) the partitions
    differ for every start, and the curves split by 0.051 bits from
    (2,1), 0.078 bits from (3,1) and 0.137 bits from every (0,k).
    Pairing bin i with bin i + 2**(k-1) would make every start with
    l >= 1 commute exactly, and it equals today's rule at k = 1, but it
    would break the match between the coset tables of the published
    matrices and the growth path.  So RAHBA keeps its documented
    pairing and this test fails honestly; the companion test freezes
    the measured behavior.
    """
    grid = [0.05 * i for i in range(11)]
    report = []
    for l, k in _start_forms(6):
        t = standard_table(l, k)
        n = l + k + 2
        a = permute_bits(rasba(rahba(t)), list(range(n - 2)) + [n - 1, n - 2])
        b = rahba(rasba(t))
        same = partition_of(a) == partition_of(b)
        gap = max(abs(total_equivocation(a, p) - total_equivocation(b, p)) for p in grid)
        report.append(((l, k), same, gap))
    for form, same, gap in report:
        if 1e-9 < gap <= 1e-4:
            print("flag: growth orders from %s differ by %.3g bits" % (form, gap))
    failures = [(f, s, g) for f, s, g in report if not s or g > 1e-4]
    assert not failures, "growth orders do not commute: %s" % failures


def test_single_step_growth_orders_measured():
    # what the two orders actually do: always different partitions,
    # curve gaps anywhere from float noise to about 0.14 bits
    grid = [0.05 * i for i in range(11)]
    worst = 0.0
    for l, k in _start_forms(6):
        t = standard_table(l, k)
        a = rasba(rahba(t))
        b = rahba(rasba(t))
        assert partition_of(a) != partition_of(b)
        worst = max(
            worst,
            max(abs(total_equivocation(a, p) - total_equivocation(b, p)) for p in grid),
        )
    assert 0.01 < worst < 0.15


def test_standard_table_domain():
    with pytest.raises(ValueError):
        standard_table(1, 0)
    with pytest.raises(ValueError):
        standard_table(-1, 2)


def test_constructions_stop_at_the_blocklength_cap():
    with pytest.raises(CapExceeded):
        standard_table(1, N_CAP)
    with pytest.raises(CapExceeded):
        closed_form_table(1, N_CAP)
    widest = standard_table(8, N_CAP - 8)
    for grow in (rasba, rahba):
        with pytest.raises(CapExceeded):
            grow(widest)


def rasba_lists(bins):
    """Reference RASBA on lists: bin i's children append 0/1 in alternation, then the reverse."""
    out = []
    for b in bins:
        first = [w << 1 | (pos & 1) for pos, w in enumerate(b)]
        out += [first, [w ^ 1 for w in first]]
    return out


def rahba_lists(bins):
    """Reference RAHBA on lists: the pair (B, C) becomes [B||0; C||1] and [B||1; C||0]."""
    out = []
    for b, c in zip(bins[::2], bins[1::2]):
        out.append([w << 1 for w in b] + [w << 1 | 1 for w in c])
        out.append([w << 1 | 1 for w in b] + [w << 1 for w in c])
    return out


def test_array_constructions_equal_the_list_recursion():
    """standard_table and closed_form_table equal the per-word recursion in order, for every n <= 14."""
    for l in range(0, 14):
        bins = [[0], [1]]
        for _ in range(l):
            bins = rahba_lists(bins)
        for k in range(1, 15 - l):
            if k > 1:
                bins = rasba_lists(bins)
            assert standard_table(l, k).bins == bins, (l, k)
            if l >= 1:
                assert closed_form_table(l, k).bins == bins, (l, k)
            if l + k < 14:
                assert rasba(standard_table(l, k)).bins == rasba_lists(bins)
                assert rahba(standard_table(l, k)).bins == rahba_lists(bins)
