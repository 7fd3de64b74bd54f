"""Every door that builds or counts tables applies its size rule before any work.

The table-form rule (bitcore.check_form) refuses forms past the blocklength
cap, and the count rule (baselines.table_count) sizes a table space by
log-gamma before any factorial is taken.  Each refusal here comes at once:
within a time bound, and with almost nothing allocated.
"""

import time

import pytest

from wiretap import bitcore, cli
from wiretap.baselines import ENUMERATION_LIMIT, enumerate_binnings, sample_binning
from wiretap.bitcore import N_CAP, CapExceeded, CodeTable, TableParseError, parse_table
from wiretap.linear_matrices import build_codec, coset_table, syndrome_check
from wiretap.ni_code import closed_form_table, rahba, rasba, standard_table

from traced_peak import peak_bytes

# a header one bit past the cap, as each table reader sees it
PAST_CAP_HEADER = "1 %d\n" % N_CAP


@pytest.fixture(scope="module")
def widest():
    return standard_table(8, N_CAP - 8)


@pytest.fixture(scope="module")
def past_cap_codec():
    # a codec is no table: encode and decode work past the table cap
    return build_codec(1, N_CAP)


# each door, given the widest table and a codec past the cap
DOORS = {
    "CodeTable": lambda t, codec: CodeTable(1, N_CAP, []),
    "standard_table": lambda t, codec: standard_table(1, N_CAP),
    "closed_form_table": lambda t, codec: closed_form_table(1, N_CAP),
    "rasba": lambda t, codec: rasba(t),
    "rahba": lambda t, codec: rahba(t),
    "coset_table": lambda t, codec: coset_table(codec),
    "syndrome_check": lambda t, codec: syndrome_check(codec),
    "sample_binning": lambda t, codec: next(sample_binning(1, N_CAP, seed=0)),
    # the canonical reader hands the text on to the scanner, which refuses it
    "canonical_reader": lambda t, codec: bitcore._parse_canonical(PAST_CAP_HEADER + "01 10\n" * 4),
    "line_scanner": lambda t, codec: bitcore._scan_table(PAST_CAP_HEADER + "01 10\n" * 4),
    "parse_table": lambda t, codec: parse_table(PAST_CAP_HEADER),
}


@pytest.mark.parametrize("name", sorted(DOORS))
def test_each_door_refuses_a_form_past_the_cap_before_any_work(name, widest, past_cap_codec):
    outcome = {}

    def door():
        start = time.perf_counter()
        try:
            outcome["refused"] = DOORS[name](widest, past_cap_codec) is None
        except (CapExceeded, TableParseError):
            outcome["refused"] = True
        outcome["elapsed"] = time.perf_counter() - start

    peak = peak_bytes(door)
    assert outcome["refused"]
    assert outcome["elapsed"] < 0.1
    assert peak < 1 << 20


def test_the_scanner_names_a_past_cap_header_as_an_unsupported_form():
    with pytest.raises(TableParseError) as exc:
        parse_table(PAST_CAP_HEADER + "01 10\n" * 4)
    assert str(exc.value) == "line 1: unsupported form (1, %d)" % N_CAP
    assert bitcore._parse_canonical(PAST_CAP_HEADER) is None


@pytest.mark.parametrize("form", [(2, 17), (0, 24)])
def test_enumeration_past_its_limit_is_refused_before_any_factorial(form):
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        next(enumerate_binnings(*form))
    assert time.perf_counter() - start < 1.0
    assert "past limit %d" % ENUMERATION_LIMIT in str(exc.value)


# every form of n = 11 or 12 whose ordered table count has more digits than
# Python prints by default
HUGE_SPACES = ["0,11", "1,10", "2,9", "3,8", "0,12", "1,11", "2,10", "3,9", "4,8", "5,7", "6,6", "7,5", "8,4"]


@pytest.mark.parametrize("form", HUGE_SPACES)
def test_compare_exhaustive_on_a_huge_space_exits_3_at_once(form, capsys):
    start = time.perf_counter()
    code = cli.main(["compare", "--form", form, "--exhaustive", "--p", "0.1"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert elapsed < 1.0
    assert err.startswith("error: form (%s) has a " % form) and err.count("\n") == 1
    assert err.endswith("-digit number of ordered tables, exhaustive baseline exceeds cap %d\n" % ENUMERATION_LIMIT)
