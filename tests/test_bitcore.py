import itertools
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap import bitcore
from wiretap.baselines import enumerate_binnings, sample_binning
from wiretap.bitcore import (
    N_CAP,
    CapExceeded,
    CodeTable,
    TableParseError,
    format_table,
    hamming_distance,
    parse_table,
    parse_word,
    partition_of,
    tables_equal_ordered,
    tables_equal_partition,
    word_str,
    xor_translate,
)

from wiretap.equivocation import bin_posteriors, conditional_equivocation, distance_profile
from wiretap.linear_matrices import build_codec, decode, encode
from wiretap.ni_code import closed_form_table, rasba, standard_table

from golden_tables import GOLDEN, make
from partition_check import is_partition


def test_word_str_examples():
    assert word_str(0, 5) == "00000"
    assert word_str(0b101, 3) == "101"
    assert word_str(1, 4) == "0001"
    with pytest.raises(ValueError):
        word_str(8, 3)
    with pytest.raises(ValueError):
        word_str(-1, 3)


def test_parse_word_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 17)
        w = rng.randrange(1 << n)
        got, width = parse_word(word_str(w, n))
        assert (got, width) == (w, n)


def test_parse_word_rejects_junk():
    for bad in ("", "01a", "2", " 01", "0 1"):
        with pytest.raises(ValueError):
            parse_word(bad)


def test_hamming_examples():
    assert hamming_distance(0b00000, 0b00000) == 0
    assert hamming_distance(0b000, 0b111) == 3
    assert hamming_distance(0b0110, 0b1010) == 2
    assert hamming_distance(5, 1, n=3) == 1


def test_hamming_range_check():
    with pytest.raises(ValueError):
        hamming_distance(5, 1, n=2)
    with pytest.raises(ValueError):
        hamming_distance(1, 4, n=2)


# every public entry point given a word or an observation, at form (1, 2),
# n = 3: (its call on the word w, the bits w must fit in, or None when the
# call bounds w only from below)
_TABLE = make((1, 2))
_CODEC = build_codec(1, 2)
WORD_CALLS = {
    "word_str": (lambda w: word_str(w, 3), 3),
    "hamming_distance": (lambda w: hamming_distance(0, w, n=3), 3),
    "hamming_distance without n": (lambda w: hamming_distance(w, 0), None),
    "xor_translate": (lambda w: xor_translate(_TABLE, w), 3),
    "distance_profile": (lambda w: distance_profile(_TABLE, w), 3),
    "bin_posteriors": (lambda w: bin_posteriors(_TABLE, w, 0.1), 3),
    "conditional_equivocation": (lambda w: conditional_equivocation(_TABLE, w, 0.1), 3),
    "encode message": (lambda w: encode(_CODEC, w, 0), 2),
    "encode auxiliary": (lambda w: encode(_CODEC, 0, w), 1),
    "decode": (lambda w: decode(_CODEC, w), 3),
}


@pytest.mark.parametrize("entry", sorted(WORD_CALLS))
def test_every_word_entry_point_applies_the_word_rule(entry):
    call, n = WORD_CALLS[entry]
    # a non-integer is refused, not rounded down to the word below it
    with pytest.raises(TypeError):
        call(2.5)
    with pytest.raises(ValueError, match="does not fit"):
        call(-1)
    if n is not None:
        with pytest.raises(ValueError, match="does not fit in %d bits" % n):
            call(1 << n)
        # the largest word and numpy integers are words
        call((1 << n) - 1)
        call(np.uint32(1))


def test_hamming_metric_properties():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, b) == 0) == (a == b)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


def test_code_table_shape_and_words():
    t = make((2, 1))
    assert t.n == 3
    assert sorted(t.words()) == list(range(8))
    with pytest.raises(ValueError):
        CodeTable(-1, 1, [])
    with pytest.raises(ValueError):
        CodeTable(1, 0, [])


def test_code_table_cap():
    with pytest.raises(CapExceeded):
        CodeTable(1, N_CAP, [])


def test_validate_golden_tables():
    for form in GOLDEN:
        assert is_partition(make(form))


def test_validate_reports_duplicate_and_missing():
    with pytest.raises(ValueError, match="invalid code table: ") as exc:
        CodeTable(1, 1, [[0b00, 0b00], [0b01, 0b10]])
    assert "duplicate word 00" in str(exc.value)
    # the duplicate masks the missing-word scan, which only runs clean
    with pytest.raises(ValueError, match="duplicate word 01"):
        CodeTable(1, 1, [[0b00, 0b11], [0b01, 0b01]])


def test_validate_reports_missing_words():
    with pytest.raises(ValueError) as exc:
        CodeTable(1, 1, [[0b00], [0b01, 0b10, 0b11]])
    text = str(exc.value)
    assert "bin 1 has 1 words" in text
    assert "bin 2 has 3 words" in text


def test_validate_reports_out_of_range():
    with pytest.raises(ValueError, match="does not fit"):
        CodeTable(1, 1, [[0b00, 0b11], [0b01, 4]])


@pytest.mark.parametrize("bins", [[["0"], ["1"]], [[None], [1]], [[0], [1.5]], [[0.0], [0.0]], [[0.5], [5]]])
def test_validate_reports_non_integer_words(bins):
    # the per-word scan applies the word rule: no TypeError escapes the table's check
    with pytest.raises(ValueError, match="^invalid code table: .*words must be integers"):
        CodeTable(0, 1, bins)


def test_a_nesting_of_integer_words_is_read_as_integers():
    # numpy reads a uint64 beside Python ints as float64; the words are integers all the same
    assert CodeTable(1, 1, [[np.uint64(0), 3], [1, 2]]).bins == [[0, 3], [1, 2]]
    assert CodeTable(1, 1, [[np.uint64(0), np.int64(3)], [np.uint64(1), 2]]).bins == [[0, 3], [1, 2]]
    assert CodeTable(1, 1, [[np.int64(0), 3], [1, 2]]).bins == [[0, 3], [1, 2]]
    with pytest.raises(ValueError, match="^invalid code table: .*words must be integers"):
        CodeTable(1, 1, [[np.uint64(0), 3.0], [1, 2]])
    with pytest.raises(ValueError, match="^invalid code table: .*words must be integers"):
        CodeTable(1, 1, [[np.uint64(0), 3], [1, 2.5]])
    with pytest.raises(ValueError, match="^invalid code table: bin 2: word 4 does not fit in 2 bits$"):
        CodeTable(1, 1, [[np.uint64(0), 3], [1, 4]])
    with pytest.raises(ValueError, match="^invalid code table: duplicate word 01 "):
        CodeTable(1, 1, [[np.uint64(0), 3], [1, 1]])


def test_validate_reports_bin_count():
    with pytest.raises(ValueError, match="expected 4 bins"):
        CodeTable(1, 2, [[0, 7], [1, 6], [2, 5]])


def test_require_valid():
    assert is_partition(make((1, 1)))
    with pytest.raises(ValueError):
        CodeTable(1, 1, [[0, 0], [1, 2]])


def test_xor_translate_example():
    # translating the (2,1) table by 111 flips every word in place
    t = make((2, 1))
    got = xor_translate(t, 0b111)
    assert got.bins == [
        [0b111, 0b001, 0b100, 0b010],
        [0b110, 0b000, 0b101, 0b011],
    ]


def test_xor_translate_involution_and_validity():
    rng = random.Random(3)
    for form in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
        t = make(form)
        for _ in range(10):
            z = rng.randrange(1 << t.n)
            back = xor_translate(xor_translate(t, z), z)
            assert tables_equal_ordered(back, t)
            assert is_partition(xor_translate(t, z))
    assert tables_equal_ordered(xor_translate(t, 0), t)
    with pytest.raises(ValueError):
        xor_translate(make((1, 1)), 4)


def test_equality_notions():
    t = make((1, 1))
    reordered = CodeTable(1, 1, [[0b10, 0b01], [0b11, 0b00]])
    assert not tables_equal_ordered(t, reordered)
    assert tables_equal_partition(t, reordered)
    other = CodeTable(1, 1, [[0b00, 0b01], [0b10, 0b11]])
    assert not tables_equal_partition(t, other)
    assert partition_of(t) == {frozenset({0b00, 0b11}), frozenset({0b01, 0b10})}


def test_equality_verdicts_are_those_of_the_bin_lists_and_sets():
    """3,600 pairs of small tables of equal and unequal forms and blocklengths."""
    tables = (list(enumerate_binnings(1, 1)) + list(enumerate_binnings(0, 2))
              + list(itertools.islice(enumerate_binnings(2, 1), 0, 70, 7))
              + list(itertools.islice(enumerate_binnings(1, 2), 0, 2520, 126)))
    assert len(tables) == 60
    verdicts = Counter()
    for a, b in itertools.product(tables, repeat=2):
        ordered = a.l == b.l and a.k == b.k and a.bins == b.bins
        partition = a.n == b.n and partition_of(a) == partition_of(b)
        assert tables_equal_ordered(a, b) == ordered
        assert tables_equal_partition(a, b) == partition
        verdicts[ordered, partition] += 1
    assert set(verdicts) == {(True, True), (False, True), (False, False)}


def test_equality_at_n_20_holds_no_copy_of_the_bins_as_lists():
    a = standard_table(4, 16)
    b = CodeTable(4, 16, a.array[::-1, ::-1])
    swapped = a.array.copy()
    swapped[[0, 1], 0] = swapped[[1, 0], 0]
    assert tables_equal_ordered(a, a) and not tables_equal_ordered(a, b)
    assert tables_equal_partition(a, b) and not tables_equal_partition(a, CodeTable(4, 16, swapped))
    words = 4 << 20
    # a bool per word to compare in order; a sorted copy of each table, and one
    # transient reordering, up to bin order
    assert _peak_bytes(lambda: tables_equal_ordered(a, b)) <= words / 2
    assert _peak_bytes(lambda: tables_equal_partition(a, b)) <= 4 * words


def test_format_parse_round_trip():
    for form in GOLDEN:
        t = make(form)
        back = parse_table(format_table(t))
        assert tables_equal_ordered(back, t)


def test_format_layout():
    text = format_table(make((1, 1)))
    assert text == "1 1\n00 11\n01 10\n"


def test_parse_rejects_bad_header():
    with pytest.raises(TableParseError) as exc:
        parse_table("just one\n")
    assert exc.value.line == 1
    with pytest.raises(TableParseError):
        parse_table("")
    with pytest.raises(TableParseError) as exc:
        parse_table("0 0\n0 1\n")
    assert "unsupported form" in str(exc.value)


def test_parse_rejects_bad_words_with_line_numbers():
    with pytest.raises(TableParseError) as exc:
        parse_table("1 1\n00 11\n01 1x\n")
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)
    with pytest.raises(TableParseError) as exc:
        parse_table("1 1\n00 111\n01 10\n")
    assert exc.value.line == 2


def test_parse_rejects_wrong_shapes():
    with pytest.raises(TableParseError) as exc:
        parse_table("1 1\n00 11 01\n10\n")
    assert exc.value.line == 2
    with pytest.raises(TableParseError) as exc:
        parse_table("1 2\n000 111\n001 110\n")
    assert "expected 4" in str(exc.value)


def test_parse_rejects_invalid_partition():
    # well-formed lines, but 00 appears twice so validation fails
    with pytest.raises(TableParseError) as exc:
        parse_table("1 1\n00 11\n00 10\n")
    assert "duplicate word" in str(exc.value)


@st.composite
def repeated_words(draw):
    """A form (l, k) and a (2**k, 2**l) word array in range with at least one
    word repeated: a permutation with some positions copied from others."""
    l, k = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    size = 1 << (l + k)
    words = draw(st.permutations(range(size)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, size - 1))
        words[at] = words[(at + draw(st.integers(1, size - 1))) % size]
    dtype = draw(st.sampled_from([np.uint32, np.int64]))
    return l, k, np.array(words, dtype=dtype).reshape(1 << k, 1 << l)


@settings(max_examples=200, deadline=None)
@given(repeated_words())
def test_repeats_in_an_array_are_listed_as_the_per_word_scan_lists_them(case):
    l, k, words = case
    want = str(bitcore._invalid(l, k, words.tolist()))
    assert "duplicate word" in want
    assert str(bitcore._invalid(l, k, words)) == want
    with pytest.raises(ValueError) as exc:
        CodeTable(l, k, words)
    assert str(exc.value) == want


def test_parse_names_the_duplicate_of_a_flipped_bit_at_n_20():
    t = standard_table(4, 16)
    n, text = t.n, format_table(t)
    b, i, bit = 1000, 5, 7
    word = int(t.array[b, i]) ^ (1 << (n - 1 - bit))
    at = text.index("\n") + 1 + (b << 4) * (n + 1) + i * (n + 1) + bit
    (other,) = np.flatnonzero((t.array == word).any(axis=1))
    first, second = sorted((b, int(other)))
    with pytest.raises(TableParseError) as exc:
        parse_table(text[:at] + "10"[int(text[at])] + text[at + 1 :])
    assert str(exc.value) == "duplicate word %s (bins %d and %d)" % (word_str(word, n), first + 1, second + 1)


def test_parse_skips_blank_lines():
    t = parse_table("1 1\n\n00 11\n\n01 10\n")
    assert tables_equal_ordered(t, make((1, 1)))


def format_per_word(t):
    """Reference writer: the header, then each bin's words joined by single spaces."""
    lines = ["%d %d" % (t.l, t.k)] + [" ".join(word_str(w, t.n) for w in b) for b in t.bins]
    return "\n".join(lines) + "\n"


def _family_and_random_tables(max_n):
    for n in range(1, max_n + 1):
        for l in range(n):
            yield standard_table(l, n - l)
    for seed, (l, k) in enumerate(((0, 3), (1, 1), (2, 5), (3, 4), (5, 2), (1, 11), (6, 6))):
        yield next(sample_binning(l, k, seed))


def test_format_equals_the_per_word_writer_and_round_trips():
    for t in _family_and_random_tables(12):
        text = format_table(t)
        assert text == format_per_word(t)
        assert tables_equal_ordered(parse_table(text), t)
        # canonical text takes the array decoder
        assert tables_equal_ordered(bitcore._parse_canonical(text), t)


def test_format_bounds_its_blocks(monkeypatch):
    """Assembling a few bins at a time writes the same text as one block."""
    tables = [standard_table(3, 5), next(sample_binning(2, 6, seed=3)), make((0, 1))]
    whole = [format_table(t) for t in tables]
    monkeypatch.setattr(bitcore, "_FORMAT_BYTES", 50)
    assert [format_table(t) for t in tables] == whole


def test_non_canonical_spellings_parse_to_the_same_table():
    for t in (make((2, 2)), make((0, 1)), standard_table(3, 3)):
        text = format_table(t)
        lines = text.splitlines()
        spellings = [
            text.rstrip("\n"),
            text.replace("\n", "\r\n"),
            text.replace(" ", "\t"),
            text.replace(" ", "  "),
            "\n".join(lines[:1] + [""] + lines[1:]) + "\n\n",
            " " + text.replace("\n", " \n"),
            "%d  %d\n" % (t.l, t.k) + "\n".join(lines[1:]),
        ]
        for other in spellings:
            assert other != text and bitcore._parse_canonical(other) is None
            assert tables_equal_ordered(parse_table(other), t)


def _outcome(text):
    try:
        t = parse_table(text)
    except TableParseError as exc:
        return ("error", exc.line, str(exc))
    return ("table", t.l, t.k, t.bins)


def test_single_character_corruptions_fail_as_the_scanner_does(monkeypatch):
    """Every one-character edit of canonical text gives the scanner's outcome, line number included."""
    texts = [format_table(make((2, 2))), format_table(make((1, 1))), format_table(standard_table(0, 2))]
    corrupted = []
    for text in texts:
        for i in range(len(text)):
            for c in "01 \n\tx2\xe9\r":
                if c != text[i]:
                    corrupted.append(text[:i] + c + text[i + 1 :])
            corrupted.append(text[:i] + text[i + 1 :])
    got = [_outcome(text) for text in corrupted]
    monkeypatch.setattr(bitcore, "_parse_canonical", lambda text: None)
    assert got == [_outcome(text) for text in corrupted]
    errors = [o for o in got if o[0] == "error"]
    assert len(errors) > 0.8 * len(got)
    assert sum(o[1] is not None and o[1] > 1 for o in errors) > len(errors) // 2


@st.composite
def _nestings(draw):
    """A form, bins nested as lists, and whether they are a partition of its words.

    The bins start as a random permutation of the n-bit words.  Edits move
    a word to another bin, turn one into a float, put one out of range,
    copy one over another, or make one a numpy integer.
    """
    l, k = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    n = l + k
    words = draw(st.permutations(range(1 << n)))
    bins = [list(words[i << l : (i + 1) << l]) for i in range(1 << k)]
    for edit in draw(st.lists(st.sampled_from(["ragged", "float", "range", "duplicate", "numpy"]), max_size=3)):
        spots = [(i, j) for i, b in enumerate(bins) for j in range(len(b))]
        i, j = draw(st.sampled_from(spots))
        if edit == "ragged":
            to = draw(st.sampled_from([b for b in range(len(bins)) if b != i]))
            bins[to].append(bins[i].pop(j))
        elif edit == "float":
            bins[i][j] = draw(st.sampled_from([float(bins[i][j]), bins[i][j] + 0.5]))
        elif edit == "range":
            bins[i][j] = draw(st.sampled_from([-1, 1 << n, (1 << n) + 5, 1 << 40, 1 << 70]))
        elif edit == "duplicate":
            a, b = draw(st.sampled_from([s for s in spots if s != (i, j)]))
            bins[i][j] = bins[a][b]
        elif isinstance(bins[i][j], int) and bins[i][j] in range(256):
            bins[i][j] = draw(st.sampled_from([np.uint8, np.int64, np.uint32]))(bins[i][j])
    flat = [w for b in bins for w in b]
    partition = (
        all(len(b) == 1 << l for b in bins)
        and all(isinstance(w, (int, np.integer)) for w in flat)
        and sorted(flat) == list(range(1 << n))
    )
    return l, k, bins, partition


@settings(max_examples=300, deadline=None)
@given(_nestings())
def test_every_table_is_a_partition_or_is_not_built(nesting):
    l, k, bins, partition = nesting
    try:
        t = CodeTable(l, k, bins)
    except ValueError as exc:
        assert not partition and str(exc).startswith("invalid code table: ")
        return
    assert partition and is_partition(t) and t.bins == bins


def test_table_array_is_read_only_and_bins_are_fresh():
    source = np.array([[0, 3], [1, 2]], dtype=np.int64)
    t = CodeTable(1, 1, source)
    assert t.array.dtype == np.uint32 and not t.array.flags.writeable
    with pytest.raises(ValueError):
        t.array[0, 0] = 1
    source[0, 0] = 1
    assert t.bins == [[0, 3], [1, 2]]
    bins = t.bins
    bins[0][0] = 1
    assert bins is not t.bins and t.bins == [[0, 3], [1, 2]]
    assert all(type(w) is int for b in t.bins for w in b)
    assert is_partition(t) and t.words() == [0, 3, 1, 2]
    # input that is not a partition builds no table
    with pytest.raises(ValueError, match="bin 1 has 1 words"):
        CodeTable(1, 1, [[0], [1, 2, 3]])
    with pytest.raises(ValueError, match="integers"):
        CodeTable(1, 1, [[0.0, 3.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="word 1099511627776 does not fit"):
        CodeTable(1, 1, [[0, 1 << 40], [1, 2]])


def test_code_table_never_aliases_or_freezes_a_callers_array():
    source = np.array([[0, 3], [1, 2]], dtype=np.uint32)
    t = CodeTable(1, 1, source)
    assert not np.shares_memory(t.array, source) and source.flags.writeable
    source[0, 0] = 1
    assert t.bins == [[0, 3], [1, 2]]
    # sampled tables are rows of one block, so each keeps its own copy
    a, b = sample_binning(2, 3, seed=5, count=2)
    assert not np.shares_memory(a.array, b.array)
    # builders hand their fresh arrays over: nothing else holds them, and they are read-only
    for t in (standard_table(2, 3), closed_form_table(2, 3), rasba(make((1, 1))), xor_translate(make((2, 1)), 5)):
        assert not t.array.flags.writeable and is_partition(t)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_memory_is_its_output_plus_the_last_input():
    """standard_table(4,16) writes each growth step into its output and keeps it uncopied."""
    standard_table(4, 16)  # first-call allocations are not the point
    words = 4 << 20
    # the last RASBA step holds its 2 MB input and 4 MB output; steps through two 2 MB
    # temporaries and a constructor copying the output peak at 10 MB
    assert _peak_bytes(lambda: standard_table(4, 16)) <= 1.75 * words


def test_canonical_reader_holds_one_block_of_text_at_a_time(monkeypatch):
    t = standard_table(2, 14)
    text = format_table(t)
    monkeypatch.setattr(bitcore, "_FORMAT_BYTES", 1 << 16)
    bitcore._parse_canonical(text)
    peak = _peak_bytes(lambda: bitcore._parse_canonical(text))
    # the words, the scatter that validates them, and two block-sized buffers (the
    # text slice and its bytes, then the bytes and the bits) with a margin; the
    # 1.1 MB text is never copied whole
    assert peak <= t.array.nbytes + (1 << t.n) + 3 * bitcore._FORMAT_BYTES < len(text), peak


def _scanner_outcome(text):
    with mock.patch.object(bitcore, "_parse_canonical", lambda text: None):
        return _outcome(text)


def _block_tables():
    # bins of 1, 2 and 8 words; 8, 16 and 32 bins
    return [standard_table(0, 3), next(sample_binning(1, 4, seed=2)), standard_table(3, 5)]


def test_reader_blocks_fail_at_their_edges_as_the_scanner_does(monkeypatch):
    """Every character of the first and last bin of each block, corrupted, gives the scanner's outcome."""
    tables = _block_tables()
    wholes = [bitcore._parse_canonical(format_table(t)) for t in tables]
    for t, whole in zip(tables, wholes):
        text = format_table(t)
        head = len("%d %d\n" % (t.l, t.k))
        row = (1 << t.l) * (t.n + 1)
        # blocks of three bins, the last one short
        monkeypatch.setattr(bitcore, "_FORMAT_BYTES", 3 * row + 2)
        bins = 1 << t.k
        assert bins % 3 != 0
        assert tables_equal_ordered(bitcore._parse_canonical(text), whole)
        assert tables_equal_ordered(whole, t)
        edges = {b for start in range(0, bins, 3) for b in (start, min(start + 2, bins - 1))}
        for b in sorted(edges):
            for i in range(head + b * row, head + (b + 1) * row):
                for c in "01 \nx\t":
                    if c != text[i]:
                        edited = text[:i] + c + text[i + 1 :]
                        assert _outcome(edited) == _scanner_outcome(edited), (t, i, c)
                edited = text[:i] + text[i + 1 :]
                assert _outcome(edited) == _scanner_outcome(edited), (t, i)


_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 1 << 16),
        st.sampled_from(list("01 \n\r\tx2-\xe9")),
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2), st.integers(1, 96), _EDITS, st.one_of(st.none(), st.integers(0, 1 << 16)))
def test_parse_table_fuzz_fails_only_as_the_scanner_does(which, block_bytes, edits, cut):
    """Byte-level edits and truncations of canonical multi-block texts: parse_table raises only
    TableParseError and gives the scanner's outcome, line number included."""
    text = format_table(_block_tables()[which])
    for op, at, c in edits:
        at %= len(text) + 1
        if op == "replace":
            text = text[:at] + c + text[at + 1 :]
        elif op == "insert":
            text = text[:at] + c + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    if cut is not None:
        text = text[: cut % (len(text) + 1)]
    with mock.patch.object(bitcore, "_FORMAT_BYTES", block_bytes):
        assert _outcome(text) == _scanner_outcome(text)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
def test_writer_at_the_widths_where_a_words_byte_count_changes(n):
    tables = [standard_table(0, n), standard_table(n - 1, 1), next(sample_binning(n // 2, n - n // 2, seed=n))]
    if n > 1:
        tables.append(next(sample_binning(0, n, seed=n)))
    for t in tables:
        text = format_table(t)
        assert len(text) < 3 << 20
        assert text == format_per_word(t)
        assert tables_equal_ordered(bitcore._parse_canonical(text), t)


@pytest.mark.parametrize("n", list(range(1, 17)) + [20])
def test_format_spells_each_word_at_every_shift(n):
    """Each word is shifted up by 32 - n before its bits are unpacked: every shift spells word_str."""
    l = n // 2
    t = CodeTable(l, n - l, np.random.default_rng(n).permutation(1 << n).reshape(1 << (n - l), 1 << l))
    text, want = format_table(t), format_per_word(t)
    # a failure names the first character that differs, not a diff of megabytes
    first_difference = None if text == want else next(i for i, (a, b) in enumerate(zip(text + "$", want + "$")) if a != b)
    assert first_difference is None
    if n == 20:
        assert tables_equal_ordered(parse_table(text), t)


def _rank_by_insertion(words):
    # reference: a basis kept by leading bit, one Python int at a time
    basis = {}
    for w in map(int, words):
        while w:
            top = w.bit_length() - 1
            if top not in basis:
                basis[top] = w
                break
            w ^= basis[top]
    return len(basis)


def test_word_rank_of_a_stack_is_the_rank_of_each_set():
    rng = np.random.default_rng(5)
    for n, size in ((1, 1), (3, 2), (5, 4), (8, 3), (12, 16)):
        stack = rng.integers(0, 1 << n, size=(4, 3, size), dtype=np.uint32)
        stack[0, 0] = 0  # rank 0
        stack[1, 1] = stack[1, 1, :1]  # one word repeated: rank 1 unless it is 0
        ranks = bitcore.word_rank(stack, n)
        assert ranks.shape == (4, 3)
        for idx in np.ndindex(4, 3):
            want = _rank_by_insertion(stack[idx])
            assert ranks[idx] == want == bitcore.word_rank(stack[idx], n)
    # sets with no words rank 0, and so does a stack of no sets
    assert bitcore.word_rank(np.zeros((3, 0), dtype=np.uint32), 4).tolist() == [0, 0, 0]
    assert bitcore.word_rank(np.zeros((0, 4), dtype=np.uint32), 4).shape == (0,)


def test_word_basis_leads_with_distinct_bits_and_spans_each_set():
    """word_basis lists words with distinct leading bits, highest first, then zeros;
    they span the same words as the set (every word is a sum of them, and each is a
    sum of the set's words), and their count is word_rank."""
    rng = np.random.default_rng(7)
    for n, size in ((1, 2), (4, 3), (6, 5), (9, 4), (12, 16)):
        stack = rng.integers(0, 1 << n, size=(5, size), dtype=np.uint32)
        stack[0] = 0
        stack[1, 1:] = stack[1, :1]
        basis = bitcore.word_basis(stack, n)
        assert basis.shape == (5, n) and basis.dtype == stack.dtype
        assert (np.count_nonzero(basis, axis=1) == bitcore.word_rank(stack, n)).all()
        for words, rows in zip(stack, basis):
            rank = int(np.count_nonzero(rows))
            assert not rows[rank:].any()
            leads = [int(w).bit_length() for w in rows[:rank]]
            assert leads == sorted(set(leads), reverse=True)
            span = {0}
            for w in rows[:rank].tolist():
                span |= {s ^ w for s in span}
            assert set(words.tolist()) <= span and len(span) == 1 << _rank_by_insertion(words)
    assert bitcore.word_basis(np.zeros((2, 0), dtype=np.uint32), 3).tolist() == [[0, 0, 0]] * 2
