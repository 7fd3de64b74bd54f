"""Command-line experiment harness.

Subcommands construct code tables, compute equivocation curves and LP
limits, dump generator/parity-check matrices, run baseline comparisons,
and report counting quantities.  Curves are emitted as CSV (schema
versioned in a leading comment line) or JSON with run metadata; all
floating-point output is rounded to 12 significant digits at record
construction time so emitted files re-parse to the in-memory values
exactly.

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
    if l < 0 or k < 1 or l + k > bitcore.N_CAP:
        raise UsageError("unsupported form (%d, %d)" % (l, k))
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
    return [float(p) for p in np.linspace(start, stop, points)]


def _grid_from_args(args):
    # --p wins when given: a single-point evaluation
    p = getattr(args, "p", None)
    if p is not None:
        if not 0.0 <= p <= 1.0:
            raise UsageError("--p must lie in [0, 1]")
        return [float(p)]
    return parse_grid(args.p_grid)


def _write(args, data):
    """Write bytes to --out, or to stdout when it is absent."""
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
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
    return _write(args, text.encode())


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
    # the table's bytes go out as they are written: never held as text too
    _write(args, bitcore._format_bytes(build(l, k)))
    if args.emit_matrices:
        # the matrices always go to stdout, after a blank line when the table did too
        sys.stdout.write(("\n" if not args.out else "") + _matrix_block(l, k))
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
    return _write(args, ("form %d,%d\n" % (l, k) + _matrix_block(l, k)).encode())


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
    meta = {
        "command": "compare",
        "form": "%d,%d" % (l, k),
        "samples": record["samples"],
        "seed": record["seed"],
        "algorithm": record["algorithm"],
        "exhaustive": record["exhaustive"],
        "grid_points": len(grid),
        "lp": record["lp"],
        "routes": record["routes"],
    }
    return _emit(args, header, rows, meta)


def cmd_counts(args):
    l, k = parse_form(args.form)
    n, e = l + k, 1 << l
    candidates = lp_limit.appendix_count(n, e)
    direct = math.comb(e + n, e)
    codes = baselines.binning_code_count(l, k)
    paths = ni_code.path_count((1, 1), (l, k)) if l >= 1 else None
    lines = [
        "form (%d,%d): n=%d e=%d" % (l, k, n, e),
        "candidate rows N = %d (stars-and-bars C(e+n, e) = %d)" % (candidates, direct),
        "binning codes (bins unordered) = %d (approx %.2e)" % (codes, codes),
    ]
    if paths is not None:
        lines.append("recursion paths from form (1,1) = %d" % paths)
    if args.format == "json":
        payload = {"schema": 1, "form": "%d,%d" % (l, k), "candidate_rows": candidates,
                   "binning_codes": codes, "paths_from_1_1": paths}
        return _write(args, (json.dumps(payload, indent=2) + "\n").encode())
    return _write(args, ("\n".join(lines) + "\n").encode())


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wiretap",
        description="Equivocation workbench for binning codes over a binary symmetric wiretap channel.",
        epilog="exit codes: 0 success, 1 usage, 2 validation or I/O, 3 resource cap",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, grid=True, out=True):
        if grid:
            sp.add_argument("--p-grid", default="0:0.5:101", help="crossover grid start:stop:points")
            sp.add_argument("--p", type=float, default=None, help="single crossover value instead of a grid")
        if out:
            sp.add_argument("--out", default=None, help="output path (stdout when omitted)")
            sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("limit", help="LP-derived equivocation limit curve")
    sp.add_argument("--form", required=True)
    common(sp)
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("ni", help="emit a constructed code table")
    sp.add_argument("--form", required=True)
    sp.add_argument("--closed-form", action="store_true", help="use the Gray-code construction instead of the recursive path")
    sp.add_argument("--emit-matrices", action="store_true", help="also dump G and H_T (linear forms only)")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_ni)

    sp = sub.add_parser("equivocation", help="equivocation curve of a table file")
    sp.add_argument("--table-in", required=True, help="path of a table in the text format")
    common(sp)
    sp.set_defaults(func=cmd_equivocation)

    sp = sub.add_parser("matrices", help="generator and parity-check matrices of a linear form")
    sp.add_argument("--form", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_matrices)

    sp = sub.add_parser("compare", help="family rate vs limits vs random baselines")
    sp.add_argument("--form", required=True)
    sp.add_argument("--samples", type=int, default=baselines.DEFAULT_SAMPLES)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--exhaustive", action="store_true", help="enumerate every table of the form instead of sampling")
    common(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("counts", help="row counts, code-space size, recursion paths")
    sp.add_argument("--form", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(func=cmd_counts)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
