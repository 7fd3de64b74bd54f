import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap import linear_matrices
from wiretap.bitcore import CodeTable, partition_of, tables_equal_partition
from wiretap.equivocation import total_equivocation, total_equivocation_linear
from wiretap.linear_matrices import (
    UnsupportedForm,
    WiretapCodec,
    build_codec,
    coset_table,
    decode,
    encode,
    format_matrix,
    gf2_rank,
    is_linear_form,
    syndrome_check,
)
from wiretap.ni_code import standard_table

from golden_tables import GOLDEN_G, GOLDEN_H_T, make
from partition_check import is_partition
from traced_peak import peak_bytes

SUPPORTED_SMALL = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1), (4, 2)]


def linear_forms(max_n):
    return [(l, n - l) for n in range(2, max_n + 1) for l in range(1, n) if is_linear_form(l, n - l)]


def test_is_linear_form():
    assert is_linear_form(1, 6)
    assert is_linear_form(2, 3)
    assert is_linear_form(4, 2)
    assert is_linear_form(3, 1)
    assert not is_linear_form(3, 2)
    assert not is_linear_form(5, 1)
    assert not is_linear_form(0, 3)


def test_reference_matrices_reproduced():
    for form in GOLDEN_G:
        codec = build_codec(*form)
        assert np.array_equal(codec.G, GOLDEN_G[form]), form
        assert np.array_equal(codec.H_T, GOLDEN_H_T[form]), form


def test_unsupported_forms_raise():
    for form in ((3, 2), (5, 1), (3, 3), (0, 2)):
        with pytest.raises(UnsupportedForm):
            build_codec(*form)
    with pytest.raises(ValueError):
        build_codec(1, 0)


@pytest.mark.parametrize("form", [(1, 63), (2, 62), (64, 1)])
def test_build_codec_names_its_own_word_limit(form):
    # words are int64: n = 64 is refused as the codec's limit, not as gf2_rank's
    with pytest.raises(ValueError, match="^a codec's words are int64: need n = l \\+ k <= 63, got %d$" % sum(form)):
        build_codec(*form)


@pytest.mark.parametrize("broken, shape, message", [
    ("_generator", (5, 5), "generator for form \\(2, 3\\) is rank deficient"),
    ("_parity_check_t", (5, 3), "validity identity fails for form \\(2, 3\\)"),
])
def test_build_codec_refuses_a_broken_pattern(monkeypatch, broken, shape, message):
    # a zero G is rank deficient; a zero H_T makes G . H_T = 0, not [I_k; 0]
    monkeypatch.setattr(linear_matrices, broken, lambda l, k: np.zeros(shape, dtype=np.int64))
    with pytest.raises(linear_matrices.PatternViolation, match="^" + message + "$"):
        build_codec(2, 3)


def test_validity_identity_all_supported_small():
    for l, k in SUPPORTED_SMALL:
        codec = build_codec(l, k)
        n = l + k
        prod = (codec.G @ codec.H_T) % 2
        want = np.zeros((n, k), dtype=int)
        want[:k, :k] = np.eye(k, dtype=int)
        assert np.array_equal(prod, want), (l, k)
        assert gf2_rank(codec.G) == n


def test_encode_examples():
    assert encode(build_codec(1, 1), 0, 0) == 0b00
    assert encode(build_codec(4, 1), 1, 0b0000) == 0b11111
    assert encode(build_codec(1, 4), 0, 0) == 0b00000


def test_encode_domain():
    codec = build_codec(1, 2)
    with pytest.raises(ValueError):
        encode(codec, 4, 0)
    with pytest.raises(ValueError):
        encode(codec, 0, 2)
    with pytest.raises(ValueError):
        decode(codec, 1 << 3)


def test_round_trip_all_supported_small():
    for l, k in SUPPORTED_SMALL:
        codec = build_codec(l, k)
        seen = set()
        for m in range(1 << k):
            for v in range(1 << l):
                x = encode(codec, m, v)
                assert decode(codec, x) == m
                seen.add(x)
        assert len(seen) == 1 << (l + k)


def test_decode_pinned():
    assert decode(build_codec(4, 1), 0b11111) == 1


def test_syndrome_check_true_on_built_codecs():
    for l, k in linear_forms(16):
        assert syndrome_check(build_codec(l, k)), (l, k)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(linear_forms(12)), st.data())
def test_encode_is_the_coset_table_entry_and_decode_inverts_it(form, data):
    codec = build_codec(*form)
    m = data.draw(st.integers(0, (1 << codec.k) - 1))
    v = data.draw(st.integers(0, (1 << codec.l) - 1))
    x = encode(codec, m, v)
    assert x == coset_table(codec).array[m, v]
    assert decode(codec, x) == m


def test_gf2_rank_holds_63_columns_and_rejects_wider():
    assert gf2_rank(np.eye(63)) == 63
    assert gf2_rank(np.ones((5, 63), dtype=bool)) == 1
    with pytest.raises(ValueError):
        gf2_rank(np.eye(100))


def test_syndrome_check_rejects_a_singular_generator():
    # G . H_T = [I_k; 0] holds, but G has rank 1: its codewords are 0, 0, 2, 2
    codec = WiretapCodec(l=1, k=1, G=np.array([[1, 0], [0, 0]]), H_T=np.array([[1], [0]]))
    assert not syndrome_check(codec)
    with pytest.raises(ValueError, match="duplicate word 00"):
        coset_table(codec)


def test_syndrome_check_detects_corruption(monkeypatch):
    codec = build_codec(2, 3)
    bad_g = codec.G.copy()
    bad_g[0, 0] ^= 1
    assert not syndrome_check(dataclasses.replace(codec, G=bad_g))
    bad_h = codec.H_T.copy()
    bad_h[4, 2] ^= 1
    assert not syndrome_check(dataclasses.replace(codec, H_T=bad_h))
    # the identity still holds, but the first two bins hold each other's codewords
    swapped = coset_table(codec).array[[1, 0, *range(2, 8)]]
    monkeypatch.setattr(linear_matrices, "coset_table", lambda c: CodeTable(c.l, c.k, swapped))
    assert not syndrome_check(codec)



def test_syndrome_check_memory_is_a_few_passes_over_the_codewords():
    """At (2,16) the traced peak stays within four uint32 passes over the 2**18 codewords."""
    codec = build_codec(2, 16)
    assert syndrome_check(codec)  # first-call allocations are not the point
    peak = peak_bytes(lambda: syndrome_check(codec))
    # the parent's broadcast against all 16 column words peaked at 69 MB
    assert peak <= 4 * 4 << codec.n, peak

def test_coset_tables_are_valid_partitions():
    for l, k in SUPPORTED_SMALL:
        t = coset_table(build_codec(l, k))
        assert is_partition(t)
        assert t.bins[0][0] == 0


def test_coset_table_bins_are_cosets():
    for l, k in SUPPORTED_SMALL:
        t = coset_table(build_codec(l, k))
        zero_bin = set(t.bins[0])
        for a in zero_bin:
            for b in zero_bin:
                assert a ^ b in zero_bin
        for b in t.bins[1:]:
            rep = b[0]
            assert {rep ^ w for w in zero_bin} == set(b)


def test_coset_tables_equal_matrix_products():
    """Every linear form with n <= 12: bin m holds [m || v] G over GF(2)."""
    forms = linear_forms(12)
    assert len(forms) == 42
    for l, k in forms:
        codec = build_codec(l, k)
        n = l + k
        u = np.arange(1 << n)
        bits = (u[:, None] >> np.arange(n - 1, -1, -1)) & 1
        x = ((bits @ codec.G) % 2) @ (1 << np.arange(n - 1, -1, -1))
        want = x.reshape(1 << k, 1 << l).tolist()
        assert coset_table(codec).bins == want, (l, k)


def test_coset_bins_follow_messages():
    codec = build_codec(1, 3)
    t = coset_table(codec)
    for i, b in enumerate(t.bins):
        assert all(decode(codec, x) == i for x in b)


def test_coset_matches_recursion_for_single_message_bit():
    # with one message bit (and for every l = 1 form) the linear table
    # and the recursion agree as partitions
    for form in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (4, 1), (3, 1)):
        t = coset_table(build_codec(*form))
        assert tables_equal_partition(t, standard_table(*form)), form


def test_coset_diverges_from_recursion_for_wider_even_forms():
    """Even overhead with 2+ message bits: same curve, different partition.

    The linear table and the recursion output are genuinely different
    partitions, yet their equivocation curves coincide to full
    precision; both facts are intentional pins.
    """
    for form in ((2, 2), (2, 3), (4, 2)):
        lin = coset_table(build_codec(*form))
        rec = standard_table(*form)
        assert not tables_equal_partition(lin, rec), form
        for p in (0.05, 0.2, 0.4):
            assert abs(total_equivocation(lin, p) - total_equivocation(rec, p)) < 1e-12


def test_coset_22_also_differs_from_the_reference_listing():
    # three pairwise distinct (2,2) partitions, one shared curve
    lin = partition_of(coset_table(build_codec(2, 2)))
    rec = partition_of(standard_table(2, 2))
    ref = partition_of(make((2, 2)))
    assert len({lin, rec, ref}) == 3


def test_linear_shortcut_consistent_on_cosets():
    for l, k in SUPPORTED_SMALL:
        t = coset_table(build_codec(l, k))
        for p in (0.1, 0.45):
            assert abs(total_equivocation_linear(t, p) - total_equivocation(t, p)) < 1e-12


def test_format_matrix():
    codec = build_codec(3, 1)
    assert format_matrix(codec.G) == "1000\n1100\n1010\n1111"
    assert format_matrix(codec.H_T) == "1\n1\n1\n1"


def test_codec_is_frozen():
    codec = build_codec(1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        codec.l = 2
    assert isinstance(codec, WiretapCodec)
    assert codec.n == 2
