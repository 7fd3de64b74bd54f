import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wiretap import baselines, cli, ni_code
from wiretap.bitcore import TableParseError, format_table, parse_table, tables_equal_ordered
from wiretap.equivocation import total_equivocation
from wiretap.linear_matrices import build_codec, format_matrix
from wiretap.lp_limit import lp_limit_curve

from golden_tables import GOLDEN_G, GOLDEN_H_T, make


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_round12_round_trips():
    vals = [0.1, 1 / 3, 2.0 ** -40, 0.6800774593224569]
    for v in vals:
        r = cli.round12(v)
        assert float("%.12g" % r) == r


def test_limit_csv(tmp_path, capsys):
    out = tmp_path / "limit.csv"
    code, _, _ = run(capsys, ["limit", "--form", "1,4", "--p-grid", "0:0.5:6", "--out", str(out)])
    assert code == 0
    header, rows = cli.read_csv_rows(str(out))
    assert header == ["p", "lp_limit_rate"]
    assert len(rows) == 6
    assert rows[0] == [0.0, 0.0]
    assert abs(rows[-1][1] - 0.8) < 1e-9
    # emitted floats parse back to the recorded values exactly
    from wiretap.lp_limit import lp_limit_rate

    for p, rate in rows:
        assert rate == cli.round12(lp_limit_rate(1, 4, p))


def test_limit_default_grid_size(capsys):
    code, out, _ = run(capsys, ["limit", "--form", "1,1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "#schema=1"
    assert len(lines) == 2 + 101


def test_limit_single_point(capsys):
    code, out, _ = run(capsys, ["limit", "--form", "1,2", "--p", "0.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("0.5,")


def test_limit_json(capsys):
    code, out, _ = run(capsys, ["limit", "--form", "1,2", "--p-grid", "0:0.5:3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["columns"] == ["p", "lp_limit_rate"]
    assert len(payload["rows"]) == 3
    assert payload["metadata"]["command"] == "limit"
    assert payload["metadata"]["form"] == "1,2"
    assert "timestamp" in payload["metadata"]


def test_limit_csv_bytes_and_json_solver_counters(capsys):
    argv = ["limit", "--form", "3,2", "--p-grid", "0:0.5:6"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == (
        "#schema=1\n"
        "p,lp_limit_rate\n"
        "0,0\n"
        "0.1,0.323884705143\n"
        "0.2,0.394135037583\n"
        "0.3,0.39999464554\n"
        "0.4,0.399999601171\n"
        "0.5,0.4\n"
    )
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    lp = json.loads(out)["metadata"]["lp"]
    assert set(lp) == {"candidate_rows", "pivots_phase2", "bland_fallbacks", "max_dual_gap"}
    assert lp["candidate_rows"] == 1287
    assert len(lp["pivots_phase2"]) == 6
    assert lp["pivots_phase2"][0] == 0
    assert lp["bland_fallbacks"] >= 0
    assert 0.0 <= lp["max_dual_gap"] <= 1e-10


def test_limit_row_cap_exit_code(capsys):
    code, _, err = run(capsys, ["limit", "--form", "8,8", "--p", "0.1"])
    assert code == 3
    assert "exceeds cap" in err


def test_compare_hits_the_row_cap_before_it_samples(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the LP row cap was checked")

    monkeypatch.setattr(baselines, "_sample_blocks", no_sampling)
    code, _, err = run(capsys, ["compare", "--form", "4,8", "--p", "0.1"])
    assert code == 3
    assert "exceeds cap" in err


def test_compare_past_the_baseline_blocklength_cap_exits_3(capsys):
    code, out, err = run(capsys, ["compare", "--form", "2,11", "--samples", "10", "--p", "0.1"])
    assert (code, out) == (3, "")
    assert err == "error: baseline blocklength 13 exceeds cap 12\n"


def test_compare_exhaustive_past_the_enumeration_cap_exits_3_before_the_lp(capsys, monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("solved the LP before the enumeration cap was checked")

    monkeypatch.setattr(baselines, "lp_limit_curve", no_lp)
    code, out, err = run(capsys, ["compare", "--form", "2,2", "--exhaustive", "--p", "0.1"])
    assert (code, out) == (3, "")
    assert err == "error: form (2,2) has 63063000 ordered tables, exhaustive baseline exceeds cap 100000\n"


def test_csv_reruns_are_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert cli.main(["compare", "--form", "1,1", "--p-grid", "0:0.5:3",
                         "--samples", "8", "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_ni_emits_standard_table(capsys):
    code, out, _ = run(capsys, ["ni", "--form", "2,2"])
    assert code == 0
    assert tables_equal_ordered(parse_table(out), ni_code.standard_table(2, 2))


def test_ni_closed_form_flag(tmp_path, capsys):
    out = tmp_path / "table.txt"
    code, _, _ = run(capsys, ["ni", "--form", "3,2", "--closed-form", "--out", str(out)])
    assert code == 0
    got = parse_table(out.read_text())
    assert tables_equal_ordered(got, ni_code.closed_form_table(3, 2))


def test_ni_out_file_holds_the_bytes_stdout_gets(tmp_path, capsys):
    out = tmp_path / "table.txt"
    for form in ("0,1", "2,3", "5,4"):
        code, stdout, _ = run(capsys, ["ni", "--form", form])
        assert code == 0 and run(capsys, ["ni", "--form", form, "--out", str(out)])[0] == 0
        l, k = map(int, form.split(","))
        assert out.read_bytes() == stdout.encode("ascii") == format_table(ni_code.standard_table(l, k)).encode("ascii")


def test_ni_closed_form_requires_overhead(capsys):
    code, _, err = run(capsys, ["ni", "--form", "0,3", "--closed-form"])
    assert code == 2
    assert "l >= 1" in err


def test_ni_emit_matrices(tmp_path, capsys):
    out = tmp_path / "table.txt"
    code, stdout, _ = run(
        capsys, ["ni", "--form", "1,4", "--emit-matrices", "--out", str(out)]
    )
    assert code == 0
    assert parse_table(out.read_text()).k == 4
    assert format_matrix(GOLDEN_G[(1, 4)]) in stdout
    assert format_matrix(GOLDEN_H_T[(1, 4)]) in stdout


def test_equivocation_single_point(tmp_path, capsys):
    table_path = tmp_path / "d11.txt"
    table_path.write_text(format_table(make((1, 1))))
    code, out, _ = run(capsys, ["equivocation", "--table-in", str(table_path), "--p", "0.1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "p,equivocation_bits,equivocation_rate"
    p, bits, rate = (float(v) for v in lines[2].split(","))
    assert p == 0.1
    assert abs(bits - 0.680077) < 1e-6
    assert bits == cli.round12(total_equivocation(make((1, 1)), 0.1))
    assert abs(rate - bits / 2) < 1e-12


def test_equivocation_grid(tmp_path, capsys):
    table_path = tmp_path / "d12.txt"
    table_path.write_text(format_table(make((1, 2))))
    out_path = tmp_path / "curve.csv"
    code, _, _ = run(capsys, ["equivocation", "--table-in", str(table_path),
                              "--p-grid", "0:0.5:5", "--out", str(out_path)])
    assert code == 0
    _, rows = cli.read_csv_rows(str(out_path))
    assert rows[0][1] == 0.0
    assert abs(rows[-1][1] - 2.0) < 1e-9


def test_equivocation_json_reports_route(tmp_path, capsys):
    """A certified coset table is evaluated at z = 0, the golden (3,2) table at every z."""
    coset = tmp_path / "coset.txt"
    assert run(capsys, ["ni", "--form", "2,10", "--out", str(coset)])[0] == 0
    golden = tmp_path / "golden.txt"
    golden.write_text(format_table(make((3, 2))))
    for path, route in ((coset, "coset"), (golden, "full")):
        argv = ["equivocation", "--table-in", str(path), "--p-grid", "0:0.5:3"]
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["metadata"]["route"] == route
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[:2] == ["#schema=1", "p,equivocation_bits,equivocation_rate"]
        assert "route" not in out and "coset" not in out


def test_equivocation_bad_table_names_line(tmp_path, capsys):
    table_path = tmp_path / "bad.txt"
    table_path.write_text("1 1\n00 11\n01 1x\n")
    code, _, err = run(capsys, ["equivocation", "--table-in", str(table_path), "--p", "0.1"])
    assert code == 2
    assert "line 3" in err


def test_table_parse_errors_exit_2_with_the_parser_message(tmp_path, capsys):
    text = "1 1\n00 11\n01 1x\n"
    with pytest.raises(TableParseError) as exc:
        parse_table(text)
    table_path = tmp_path / "bad.txt"
    table_path.write_text(text)
    assert run(capsys, ["equivocation", "--table-in", str(table_path), "--p", "0.1"]) == (2, "", "error: %s\n" % exc.value)


def test_huge_grids_exit_3_before_allocating(tmp_path, capsys, monkeypatch):
    table_path = tmp_path / "t.txt"
    table_path.write_text(format_table(make((1, 1))))
    huge = "0:0.5:%d" % 10 ** 14
    for argv in (["limit", "--form", "1,2"], ["equivocation", "--table-in", str(table_path)],
                 ["compare", "--form", "1,1", "--samples", "4"]):
        code, out, err = run(capsys, argv + ["--p-grid", huge])
        assert (code, out) == (3, "")
        assert err == "error: grid of %d points exceeds cap %d\n" % (10 ** 14, cli.GRID_POINTS_CAP)
    monkeypatch.setattr(cli, "GRID_POINTS_CAP", 5)
    assert run(capsys, ["limit", "--form", "1,2", "--p-grid", "0:0.5:5"])[0] == 0
    assert run(capsys, ["limit", "--form", "1,2", "--p-grid", "0:0.5:6"])[0] == 3


def test_sample_counts_are_checked_before_sampling(capsys, monkeypatch):
    argv = ["compare", "--form", "1,1", "--p-grid", "0:0.5:2", "--samples"]
    for bad in ("0", "-3"):
        code, out, err = run(capsys, argv + [bad])
        assert (code, out, err) == (1, "", "error: --samples must be at least 1\n")
    code, _, err = run(capsys, argv + [str(cli.SAMPLES_CAP + 1)])
    assert code == 3
    assert err == "error: --samples %d exceeds cap %d\n" % (cli.SAMPLES_CAP + 1, cli.SAMPLES_CAP)
    monkeypatch.setattr(cli, "SAMPLES_CAP", 4)
    assert run(capsys, argv + ["4"])[0] == 0
    assert run(capsys, argv + ["5"])[0] == 3


def test_equivocation_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["equivocation", "--table-in", str(tmp_path / "nope.txt"), "--p", "0.1"])
    assert code == 2
    assert "error" in err


def test_matrices_output(capsys):
    code, out, _ = run(capsys, ["matrices", "--form", "2,3"])
    assert code == 0
    assert out.startswith("form 2,3\n")
    assert format_matrix(build_codec(2, 3).G) in out
    assert format_matrix(build_codec(2, 3).H_T) in out


def test_matrices_unsupported_form(capsys):
    code, _, err = run(capsys, ["matrices", "--form", "3,2"])
    assert code == 2
    assert "no linear matrix pattern" in err


def test_compare_csv_matches_library(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code, _, _ = run(capsys, ["compare", "--form", "1,2", "--p-grid", "0:0.5:3",
                              "--samples", "10", "--seed", "3", "--out", str(out)])
    assert code == 0
    header, rows = cli.read_csv_rows(str(out))
    assert header == ["p", "ni_rate", "lp_limit", "inf_limit", "rand_max", "rand_mean", "rand_min"]
    record = baselines.compare_form(1, 2, [0.0, 0.25, 0.5], samples=10, seed=3)
    for row, want in zip(rows, record["rows"]):
        assert row == [cli.round12(want[c]) for c in header]


def test_compare_exhaustive_flag(capsys):
    code, out, _ = run(capsys, ["compare", "--form", "1,1", "--p-grid", "0:0.5:2",
                                "--exhaustive", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["exhaustive"] is True
    assert payload["metadata"]["samples"] == 6



def test_compare_json_carries_the_lp_record_and_route_counts(capsys):
    grid = "0:0.5:3"
    code, out, _ = run(capsys, ["compare", "--form", "2,1", "--p-grid", grid, "--exhaustive", "--format", "json"])
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert set(meta) == {"command", "form", "samples", "seed", "algorithm", "exhaustive", "grid_points",
                         "lp", "routes", "timestamp"}
    assert meta["lp"] == lp_limit_curve(2, 1, [0.0, 0.25, 0.5]).stats()
    assert set(meta["lp"]) == {"candidate_rows", "pivots_phase2", "bland_fallbacks", "max_dual_gap"}
    # 7 subgroups of order 4, each in 2 bin orders, are the coset tables among the 70
    assert meta["routes"] == {"coset": 14, "full": 56}
    code, out, _ = run(capsys, ["compare", "--form", "1,2", "--p-grid", grid, "--samples", "40", "--format", "json"])
    routes = json.loads(out)["metadata"]["routes"]
    assert code == 0 and routes["coset"] + routes["full"] == 40 and routes["full"] > 0

def test_counts_text(capsys):
    code, out, _ = run(capsys, ["counts", "--form", "1,4"])
    assert code == 0
    assert "form (1,4): n=5 e=2" in out
    assert "candidate rows N = 21 (stars-and-bars C(e+n, e) = 21)" in out
    assert "1.92e+17" in out
    assert "recursion paths from form (1,1) = 1" in out


def test_counts_more_forms(capsys):
    code, out, _ = run(capsys, ["counts", "--form", "2,3"])
    assert code == 0 and "5.93e+19" in out
    code, out, _ = run(capsys, ["counts", "--form", "3,2"])
    assert code == 0 and "4.15e+15" in out
    code, out, _ = run(capsys, ["counts", "--form", "4,1"])
    assert code == 0 and "3.01e+08" in out


def test_counts_of_huge_codes_print_exactly(capsys):
    """Counts past float range and forms of 512 or more words per bin exit 0, with
    the exact count and an approximation whose exponent is its digit count - 1."""
    for form in ("2,6", "1,10", "9,1", "12,1"):
        l, k = map(int, form.split(","))
        n, e = l + k, 1 << l
        code, out, err = run(capsys, ["counts", "--form", form])
        assert (code, err) == (0, "")
        codes = baselines.binning_code_count(l, k)
        assert "candidate rows N = %d (" % math.comb(e + n, e) in out
        assert "binning codes (bins unordered) = %d (approx " % codes in out
        lead, exp = out.split("(approx ")[1].split(")")[0].split("e")
        assert int(exp) == len(str(codes)) - 1
        # three significant digits, within half a unit of the last
        unit = 10 ** (int(exp) - 2)
        assert 2 * abs(codes - int(lead.replace(".", "")) * unit) <= unit
        code, out, _ = run(capsys, ["counts", "--form", form, "--format", "json"])
        assert code == 0 and json.loads(out)["binning_codes"] == codes


@pytest.mark.parametrize("count", [1, 12345, 99949, 99950, 99951, 999500, 125, 1235, 1245, 10**20 - 1])
def test_approx_is_printf_rounding_of_the_exact_count(count):
    # 99950 and 999500 round half to even up to the next power of ten: 1.00e+05, 1.00e+06
    assert cli._approx(count) == "%.2e" % count


def test_counts_past_the_digit_cap_exit_3_at_once(capsys):
    for form in ("4,8", "13,1", "8,16"):
        for fmt in ("text", "json"):
            start = time.perf_counter()
            code, out, err = run(capsys, ["counts", "--form", form, "--format", fmt])
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (3, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "cap of %d" % baselines.COUNT_DIGITS_CAP in err


def test_counts_of_one_word_bins_skip_the_product(capsys):
    """With bins of one word every factor of the count is 1: (0,24) prints 1 at once."""
    start = time.perf_counter()
    code, out, err = run(capsys, ["counts", "--form", "0,24"])
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    assert "binning codes (bins unordered) = 1 (approx 1.00e+00)" in out


def test_counts_json_and_zero_overhead(tmp_path, capsys):
    out = tmp_path / "counts.json"
    code, _, _ = run(capsys, ["counts", "--form", "0,2", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["candidate_rows"] == 3
    assert payload["binning_codes"] == 1
    assert payload["paths_from_1_1"] is None


def test_usage_errors(capsys):
    assert run(capsys, ["limit", "--form", "3"])[0] == 1
    assert run(capsys, ["limit", "--form", "1,2", "--p-grid", "0:2:5"])[0] == 1
    assert run(capsys, ["limit", "--form", "1,2", "--p-grid", "0:0.5:1"])[0] == 1
    assert run(capsys, ["limit", "--form", "1,2", "--p", "1.5"])[0] == 1
    assert run(capsys, ["nonsense"])[0] == 1
    assert run(capsys, [])[0] == 1
    # form and grid text that does not parse: one message on stderr
    for argv in (["limit", "--form", "1,x"], ["limit", "--form", "0,25"],
                 ["limit", "--form", "1,2", "--p-grid", "0:0.5"],
                 ["limit", "--form", "1,2", "--p-grid", "a:b:3"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_compare_warns_when_a_baseline_beats_the_family(capsys, monkeypatch):
    # a sampled table in place of the family's: some sample scores above it
    table = next(baselines.sample_binning(3, 2, seed=1))
    monkeypatch.setattr(baselines, "standard_table", lambda l, k: table)
    code, out, err = run(capsys, ["compare", "--form", "3,2", "--samples", "200", "--p", "0.1"])
    assert code == 0 and out
    assert err.startswith("WARNING: baseline exceeds the family rate at p = [0.1]")


def test_compare_seeds_outside_the_key_range_exit_2(capsys):
    for seed in (2**64, -(2**63) - 1):
        code, out, err = run(capsys, ["compare", "--form", "2,2", "--samples", "5", "--p", "0.1", "--seed", str(seed)])
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must lie in") and err.count("\n") == 1
    assert run(capsys, ["compare", "--form", "2,2", "--samples", "5", "--p", "0.1", "--seed", str(2**64 - 1)])[0] == 0


def test_help_exits_clean(capsys):
    assert run(capsys, ["--help"])[0] == 0


def test_read_csv_rows_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("p,rate\n0.1,0.5\n")
    with pytest.raises(Exception) as exc:
        cli.read_csv_rows(str(path))
    assert "schema" in str(exc.value)


def _tree(capsys, argv):
    # what the full tree of parsers prints for argv, with main's exit code
    try:
        cli.build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = 0 if exc.code == 0 else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMAND_HELP = {
    "limit": "LP-derived equivocation limit curve",
    "ni": "emit a constructed code table",
    "equivocation": "equivocation curve of a table file",
    "matrices": "generator and parity-check matrices of a linear form",
    "compare": "family rate vs limits vs random baselines",
    "counts": "row counts, code-space size, recursion paths",
}


@pytest.mark.parametrize("name", list(COMMAND_HELP))
def test_each_command_prints_the_full_trees_help_and_errors(capsys, name):
    required = "--table-in" if name == "equivocation" else "--form"
    for argv in ([name, "--help"], [name, "--bogus"], [name, required, "x", "--bogus", "y"], [name]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == _tree(capsys, argv)
        assert code == (0 if argv[1:] == ["--help"] else 1)
    # unknown words are reported under the top-level usage line, as before
    assert run(capsys, [name, required, "x", "--bogus", "y"])[2].endswith(
        "wiretap: error: unrecognized arguments: --bogus y\n")
    assert run(capsys, [name])[2].endswith(
        "wiretap %s: error: the following arguments are required: %s\n" % (name, required))


def test_top_level_calls_keep_their_output_and_exit_codes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, want in (([], 1), (["--help"], 0), (["nonsense"], 1)):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == _tree(capsys, argv)
        assert code == want
    out = run(capsys, ["--help"])[1]
    assert out.startswith("usage: wiretap [-h] {limit,ni,equivocation,matrices,compare,counts} ...\n")
    assert "".join("    %-20s%s\n" % item for item in COMMAND_HELP.items()) in out
    assert run(capsys, ["nonsense"])[2].endswith("wiretap: error: argument command: invalid choice: 'nonsense' "
                                                 "(choose from 'limit', 'ni', 'equivocation', 'matrices', "
                                                 "'compare', 'counts')\n")


def test_a_command_call_builds_one_parser_and_calls_the_current_cmd(tmp_path, capsys, monkeypatch):
    table = tmp_path / "t.txt"
    table.write_text(format_table(make((1, 1))))
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    code, out, _ = run(capsys, ["equivocation", "--table-in", str(table), "--p", "0.1"])
    assert code == 0 and out.startswith(cli.CSV_SCHEMA)
    assert built == ["wiretap equivocation"]
    # the parser takes cmd_equivocation as it is when the parser is built
    monkeypatch.setattr(cli, "cmd_equivocation", lambda args: 7)
    assert run(capsys, ["equivocation", "--table-in", str(table)])[0] == 7
    # anything else builds the full tree: one parser per command and the top
    built.clear()
    run(capsys, ["--help"])
    assert built == ["wiretap"] + ["wiretap " + name for name in COMMAND_HELP]


def test_console_script_reads_sys_argv(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def call(*argv):
        return subprocess.run([sys.executable, "-m", "wiretap.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    done = call("ni", "--form", "2,3")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == format_table(ni_code.standard_table(2, 3))
    done = call("limit", "--form", "1,2", "--bogus")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.endswith("wiretap: error: unrecognized arguments: --bogus\n")


def test_ni_emit_matrices_of_a_form_without_them_writes_nothing(tmp_path, capsys):
    code, out, err = run(capsys, ["ni", "--form", "0,3", "--emit-matrices"])
    assert (code, out, err) == (2, "", "error: form (0, 3) has no linear matrix pattern\n")
    path = tmp_path / "t.txt"
    code, out, err = run(capsys, ["ni", "--form", "3,2", "--emit-matrices", "--out", str(path)])
    assert (code, out, err) == (2, "", "error: form (3, 2) has no linear matrix pattern\n")
    assert not path.exists()


def test_negative_zero_crossovers_print_as_zero(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text(format_table(make((1, 1))))
    cases = (
        (["equivocation", "--table-in", str(table), "--p", "-0.0"], ["0,0,0"]),
        (["limit", "--form", "1,2", "--p", "-0.0"], ["0,0"]),
        (["limit", "--form", "1,2", "--p-grid=-0:-0:2"], ["0,0", "0,0"]),
        (["limit", "--form", "1,2", "--p-grid", "0:-0:3"], ["0,0", "0,0", "0,0"]),
        (["limit", "--form", "1,2", "--p-grid=-0:0.5:3"], ["0,0", "0.25,", "0.5,"]),
    )
    for argv, rows in cases:
        code, out, _ = run(capsys, argv)
        assert code == 0
        lines = out.splitlines()[2:]
        assert len(lines) == len(rows) and all(line.startswith(row) for line, row in zip(lines, rows))
        assert "-0" not in out
