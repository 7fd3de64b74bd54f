"""Command-line experiment harness.

Subcommands construct code tables, compute equivocation curves and LP
limits, dump generator/parity-check matrices, run baseline comparisons,
and report counting quantities.  Curves are emitted as CSV (schema
versioned in a leading comment line) or JSON with run metadata; all
floating-point output is rounded to 12 significant digits at record
construction time so emitted files re-parse to the in-memory values
exactly.

A call that names a command builds one argument parser, that command's
own, from the COMMANDS table: the parser the full tree holds for it, so
help, errors and exit codes are the full tree's.  The full tree is built
only for anything else (no command, --help, an unknown command) and to
report words the command does not take.

Exit codes: 0 success, 1 usage, 2 validation or I/O, 3 resource cap.
"""

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import baselines, bitcore, equivocation, linear_matrices, lp_limit, ni_code

CSV_SCHEMA = "#schema=1"

# largest --p-grid point count and --samples value; past them exit 3
GRID_POINTS_CAP = 100_000
SAMPLES_CAP = 100_000


class UsageError(Exception):
    pass


def round12(v):
    return float("%.12g" % float(v))


def parse_form(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("--form expects 'l,k', got %r" % text)
    try:
        l, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError("--form expects two integers, got %r" % text)
    try:
        bitcore.check_form(l, k)
    except (ValueError, bitcore.CapExceeded):
        raise UsageError("unsupported form (%d, %d)" % (l, k)) from None
    return l, k


def parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--p-grid expects 'start:stop:points', got %r" % text)
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError("--p-grid expects numbers, got %r" % text)
    if not (0.0 <= start <= stop <= 1.0):
        raise UsageError("grid must satisfy 0 <= start <= stop <= 1")
    if points < 2:
        raise UsageError("grid needs at least 2 points")
    if points > GRID_POINTS_CAP:
        raise bitcore.CapExceeded("grid of %d points exceeds cap %d" % (points, GRID_POINTS_CAP))
    # + 0.0 turns -0.0 into 0.0, which would print as "-0"
    return [float(p) for p in np.linspace(start + 0.0, stop + 0.0, points)]


def _grid_from_args(args):
    # --p wins when given: a single-point evaluation
    p = getattr(args, "p", None)
    if p is not None:
        if not 0.0 <= p <= 1.0:
            raise UsageError("--p must lie in [0, 1]")
        return [float(p) + 0.0]  # -0.0 becomes 0.0, as in parse_grid
    return parse_grid(args.p_grid)


def _write(args, chunks):
    """Write byte chunks, in order, to --out, or to stdout when it is absent."""
    if args.out:
        with open(args.out, "wb") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    return 0


def _emit(args, header, rows, meta):
    """Write rows as CSV or JSON to --out (stdout when absent)."""
    rows = [[round12(v) if isinstance(v, float) else v for v in row] for row in rows]
    if args.format == "json":
        meta = dict(meta, timestamp=datetime.now(timezone.utc).isoformat())
        text = json.dumps({"schema": 1, "columns": header, "rows": rows, "metadata": meta}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        buf.write(CSV_SCHEMA + "\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.12g" % v if isinstance(v, float) else str(v) for v in row])
        text = buf.getvalue()
    return _write(args, [text.encode()])


def read_csv_rows(path):
    """Parse a CSV file written by this tool back into float rows."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != CSV_SCHEMA:
            raise bitcore.TableParseError("missing schema line", line=1)
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def cmd_limit(args):
    l, k = parse_form(args.form)
    grid = _grid_from_args(args)
    curve = lp_limit.lp_limit_curve(l, k, grid)
    rows = [[p, float(rate)] for p, rate in zip(grid, curve.rates)]
    meta = {"command": "limit", "form": "%d,%d" % (l, k), "grid_points": len(grid), "lp": curve.stats()}
    return _emit(args, ["p", "lp_limit_rate"], rows, meta)


def _matrix_block(l, k):
    codec = linear_matrices.build_codec(l, k)
    fmt = linear_matrices.format_matrix
    return "G =\n%s\nH_T =\n%s\n" % (fmt(codec.G), fmt(codec.H_T))


def cmd_ni(args):
    l, k = parse_form(args.form)
    build = ni_code.closed_form_table if args.closed_form else ni_code.standard_table
    # built first: a form without matrices fails before anything is written
    matrices = _matrix_block(l, k) if args.emit_matrices else None
    # the table's text goes out a block at a time: never held whole
    _write(args, bitcore._format_blocks(build(l, k)))
    if matrices is not None:
        # the matrices always go to stdout, after a blank line when the table did too
        sys.stdout.write(("\n" if not args.out else "") + matrices)
    return 0


def cmd_equivocation(args):
    with open(args.table_in) as fh:
        table = bitcore.parse_table(fh.read())
    grid = _grid_from_args(args)
    curve = equivocation.equivocation_curve(table, grid)
    rows = [[p, float(h), float(h) / table.n] for p, h in zip(grid, curve.bits)]
    meta = {
        "command": "equivocation",
        "form": "%d,%d" % (table.l, table.k),
        "table_in": args.table_in,
        "grid_points": len(grid),
        "route": curve.route,
    }
    return _emit(args, ["p", "equivocation_bits", "equivocation_rate"], rows, meta)


def cmd_matrices(args):
    l, k = parse_form(args.form)
    return _write(args, [("form %d,%d\n" % (l, k) + _matrix_block(l, k)).encode()])


def cmd_compare(args):
    l, k = parse_form(args.form)
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.samples > SAMPLES_CAP:
        raise bitcore.CapExceeded("--samples %d exceeds cap %d" % (args.samples, SAMPLES_CAP))
    grid = _grid_from_args(args)
    record = baselines.compare_form(
        l, k, grid, samples=args.samples, seed=args.seed, exhaustive=args.exhaustive
    )
    header = ["p", "ni_rate", "lp_limit", "inf_limit", "rand_max", "rand_mean", "rand_min"]
    rows = [[r[c] for c in header] for r in record["rows"]]
    beaten = [r["p"] for r in record["rows"] if r["rand_max"] > r["ni_rate"] + 1e-12]
    if beaten:
        # a baseline landing above the construction is a finding, not an error
        sys.stderr.write("WARNING: baseline exceeds the family rate at p = %s\n" % beaten)
    # every run field of the record as it is, less its form (reworded) and rows (the table)
    run = {key: value for key, value in record.items() if key not in ("form", "rows")}
    meta = {"command": "compare", "form": "%d,%d" % (l, k), **run, "grid_points": len(grid)}
    return _emit(args, header, rows, meta)


def _approx(count):
    # "%.2e" of a positive integer, rounded half to even from its exact value
    exp = len(str(count)) - 1
    lead, rest = divmod(100 * count, 10 ** exp)
    lead += 2 * rest + (lead & 1) > 10 ** exp
    if lead == 1000:
        lead, exp = 100, exp + 1
    return "%d.%02de%+03d" % (lead // 100, lead % 100, exp)


def cmd_counts(args):
    l, k = parse_form(args.form)
    n, e = l + k, 1 << l
    codes, text = baselines.table_count(l, k, ordered=False)
    if codes is None:
        raise bitcore.CapExceeded("form (%d,%d) has %s binning codes, past the cap of %d digits"
                                  % (l, k, text, baselines.COUNT_DIGITS_CAP))
    candidates = lp_limit.appendix_count(n, e)
    direct = math.comb(e + n, e)
    paths = ni_code.path_count((1, 1), (l, k)) if l >= 1 else None
    lines = [
        "form (%d,%d): n=%d e=%d" % (l, k, n, e),
        "candidate rows N = %d (stars-and-bars C(e+n, e) = %d)" % (candidates, direct),
        "binning codes (bins unordered) = %d (approx %s)" % (codes, _approx(codes)),
    ]
    if paths is not None:
        lines.append("recursion paths from form (1,1) = %d" % paths)
    if args.format == "json":
        payload = {"schema": 1, "form": "%d,%d" % (l, k), "candidate_rows": candidates,
                   "binning_codes": codes, "paths_from_1_1": paths}
        return _write(args, [(json.dumps(payload, indent=2) + "\n").encode()])
    return _write(args, [("\n".join(lines) + "\n").encode()])


_FORM, _OUT = ("--form", dict(required=True)), ("--out", dict(default=None))
_CURVE = (
    ("--p-grid", dict(default="0:0.5:101", help="crossover grid start:stop:points")),
    ("--p", dict(type=float, default=None, help="single crossover value instead of a grid")),
    ("--out", dict(default=None, help="output path (stdout when omitted)")),
    ("--format", dict(choices=["csv", "json"], default="csv")),
)

# name -> (help line, its arguments in help order as (flag, add_argument
# keywords)), in the order of the full tree's command list
COMMANDS = {
    "limit": ("LP-derived equivocation limit curve", (_FORM, *_CURVE)),
    "ni": ("emit a constructed code table", (
        _FORM,
        ("--closed-form", dict(action="store_true", help="use the Gray-code construction instead of the recursive path")),
        ("--emit-matrices", dict(action="store_true", help="also dump G and H_T (linear forms only)")),
        _OUT,
    )),
    "equivocation": ("equivocation curve of a table file",
                     (("--table-in", dict(required=True, help="path of a table in the text format")), *_CURVE)),
    "matrices": ("generator and parity-check matrices of a linear form", (_FORM, _OUT)),
    "compare": ("family rate vs limits vs random baselines", (
        _FORM,
        ("--samples", dict(type=int, default=baselines.DEFAULT_SAMPLES)),
        ("--seed", dict(type=int, default=0)),
        ("--exhaustive", dict(action="store_true", help="enumerate every table of the form instead of sampling")),
        *_CURVE,
    )),
    "counts": ("row counts, code-space size, recursion paths",
               (_FORM, _OUT, ("--format", dict(choices=["text", "json"], default="text")))),
}


def _command(parser, name):
    # `parser` given command `name`'s arguments, and its cmd_* as func
    for flag, options in COMMANDS[name][1]:
        parser.add_argument(flag, **options)
    # cmd_* looked up now, not at import, so a wrapped one is the one called
    parser.set_defaults(func=globals()["cmd_" + name])
    return parser


def build_parser():
    """The full tree: the top-level parser with every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="wiretap",
        description="Equivocation workbench for binning codes over a binary symmetric wiretap channel.",
        epilog="exit codes: 0 success, 1 usage, 2 validation or I/O, 3 resource cap",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in COMMANDS.items():
        _command(sub.add_parser(name, help=text), name)
    return parser


def _parse(argv):
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    # one parser, the command's own: the full tree's subparser for it, same prog
    parser = _command(argparse.ArgumentParser(prog="wiretap " + argv[0]), argv[0])
    args, extra = parser.parse_known_args(argv[1:])
    # the full tree reports leftover words, under its own usage line
    return build_parser().parse_args(argv) if extra else args


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except bitcore.CapExceeded as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
