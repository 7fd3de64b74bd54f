"""One round of a benchmark workload, in a fresh process started by run.py.

    python3 bench/worker.py '<json spec>'

The spec names the workload, the seed, the working directory, the mode
("setup" stops once the inputs exist, "round" also runs and checks the
operations), whether to trace, and `spawned`, the parent's
time.monotonic() just before it started this process.  The last line of
standard output is the round's result as one JSON object.

A workload is a list of operations, each a program call made the way
users make it (``wiretap.cli.main`` or a public library function), and a
check that compares the outputs with computations in ``oracles``.  The
operations are timed together; the check runs after the clock stops.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_program():
    """Import wiretap (and its CLI) from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    import wiretap
    import wiretap.cli

    if Path(wiretap.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError("wiretap was imported from %s, not from %s" % (wiretap.__file__, SRC))
    return wiretap


def _grid(points):
    return [0.5 * i / (points - 1) for i in range(points)]


def _cli(argv):
    def call(results):
        from wiretap import cli

        # looked up at call time, so that a traced round calls the wrapper
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError("wiretap %s exited with code %d" % (argv[0], code))

    return call


def limit_curve(seed, work, form=(4, 1), points=11):
    """`wiretap limit` over a fixed grid; the seed does not change the input."""
    import oracles

    l, k = form
    out = work / "limit.csv"
    argv = ["limit", "--form", "%d,%d" % form, "--p-grid", "0:0.5:%d" % points, "--out", str(out)]

    def check(results, memo):
        return {"limit": oracles.check_limit_curve(out.read_text(), l, k, _grid(points), memo)}

    return [("limit", _cli(argv), points)], check


def table_curve(seed, work, form=(2, 10), points=41):
    """`wiretap ni` writes a table file, `wiretap equivocation` reads it back."""
    import oracles

    l, k = form
    table, out = work / "table.txt", work / "curve.csv"
    ni = ["ni", "--form", "%d,%d" % form, "--out", str(table)]
    curve = ["equivocation", "--table-in", str(table), "--p-grid", "0:0.5:%d" % points, "--out", str(out)]

    def check(results, memo):
        text = table.read_text()
        return {
            "ni": oracles.check_table_file(text, l, k),
            "equivocation": oracles.check_table_curve(text, out.read_text(), _grid(points)),
        }

    return [("ni", _cli(ni), 0), ("equivocation", _cli(curve), points)], check


def random_race(seed, work, form=(3, 2), points=11, samples=10_000):
    """`wiretap compare` with the run's seed as the sampler seed."""
    import oracles

    l, k = form
    out = work / "race.csv"
    argv = ["compare", "--form", "%d,%d" % form, "--samples", str(samples), "--seed", str(seed),
            "--p-grid", "0:0.5:%d" % points, "--out", str(out)]

    def check(results, memo):
        text = out.read_text()
        return {"compare": oracles.check_random_race(text, l, k, _grid(points), samples, seed, memo)}

    return [("compare", _cli(argv), points)], check


def wide_p(seed):
    """The crossover of the wide_table equivocation call, drawn from the seed."""
    import random

    return round(random.Random(seed).uniform(0.05, 0.45), 6)


def wide_table(seed, work, form=(4, 16)):
    """Library calls on one wide table: build, text round trip, closed form, linear shortcut."""
    import oracles
    import wiretap

    l, k = form
    n = l + k
    p = wide_p(seed)
    ops = [
        ("standard_table", lambda r: wiretap.standard_table(l, k), 0),
        ("format_table", lambda r: wiretap.format_table(r["standard_table"]), 0),
        ("parse_table", lambda r: wiretap.parse_table(r["format_table"]), 0),
        ("closed_form_table", lambda r: wiretap.closed_form_table(l, k), 0),
        ("total_equivocation_linear", lambda r: wiretap.total_equivocation_linear(r["standard_table"], p), 1),
    ]

    def same(a, b):
        return (a.l, a.k) == (b.l, b.k) and a.bins == b.bins

    def check(results, memo):
        t = results["standard_table"]
        h = results["total_equivocation_linear"]
        ref = oracles.equivocation_z0(t.bins, n, p)
        return {
            "standard_table": oracles.partition_problems(t.bins, l, k) or oracles.coset_problems(t.bins),
            "format_table": [],
            "parse_table": [] if same(results["parse_table"], t) else ["parse_table(format_table(t)) != t"],
            "closed_form_table": [] if same(results["closed_form_table"], t)
            else ["closed_form_table differs from standard_table in order"],
            "total_equivocation_linear": [] if abs(h - ref) <= 1e-9
            else ["p=%r: %r bits, H(M|Z=0) = %r" % (p, h, ref)],
        }

    return ops, check


WORKLOADS = {f.__name__: f for f in (limit_curve, table_curve, random_race, wide_table)}


def file_memo(path):
    """A memo for the oracles, kept in a JSON file that a run's rounds share.

    The oracle values depend only on the workload's inputs, so later
    rounds of a run reuse them instead of solving the LPs again.
    """
    cache = json.loads(path.read_text()) if path.exists() else {}

    def memo(fn, *args):
        key = "%s%r" % (fn.__name__, args)
        if key not in cache:
            cache[key] = fn(*args)
            path.write_text(json.dumps(cache))
        return cache[key]

    return memo


def run_ops(ops):
    """Run the operations in order; returns (results, failed op -> error)."""
    results, errors = {}, {}
    for name, call, _ in ops:
        try:
            results[name] = call(results)
        except Exception:
            errors[name] = traceback.format_exc(limit=3)
    return results, errors


def check_ops(ops, check, results, errors, memo):
    """Problems per operation: its own error, or what the check found in its output."""
    problems = {name: [err] for name, err in errors.items()}
    try:
        found = check(results, memo)
    except Exception:
        found = {name: ["check raised: " + traceback.format_exc(limit=3)] for name, _, _ in ops}
    for name, items in found.items():
        if items:
            problems.setdefault(name, []).extend(items)
    return problems


def main():
    spec = json.loads(sys.argv[1])
    wiretap = import_program()
    sys.path.insert(0, str(BENCH))
    work = Path(spec["workdir"])
    work.mkdir(parents=True, exist_ok=True)
    ops, check = WORKLOADS[spec["workload"]](spec["seed"], work)
    setup_s = time.monotonic() - spec["spawned"]
    result = {"setup_s": setup_s}
    if spec["mode"] == "round":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(wiretap)
        t0 = time.perf_counter()
        results, errors = run_ops(ops)
        wall_s = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.save(work.parent / ("trace-%s" % spec["workload"]))
        t1 = time.perf_counter()
        problems = check_ops(ops, check, results, errors, file_memo(work / "oracles.json"))
        result["check_s"] = time.perf_counter() - t1
        import numpy

        result.update(
            wall_s=wall_s, rss_mb=rss_mb, points=sum(pts for _, _, pts in ops),
            ops=len(ops), problems=problems, numpy=numpy.__version__,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
