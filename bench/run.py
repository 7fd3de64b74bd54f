"""Benchmark of the wiretap CLI and library; bench/README.md explains it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh worker process, until
the next round would end past --seconds.  With
--trace 0 it reports the end-to-end metrics (medians over the rounds, and
for setup_s also over extra set-up-only processes); with --trace 1 every
round is run once untraced and once traced, and it reports the per-layer
metrics of the traced rounds plus the tracing overhead.  The last line of
standard output is the result as one JSON object; a run record and the
trace spans go to .bench_runs/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_runs"
WORKLOADS = ("limit_curve", "table_curve", "random_race", "wide_table")

# numpy's OpenBLAS would start one thread per core; the matrices here are
# small, so one thread is both the steadiest and no slower.
BLAS_THREADS = 1
SETUP_PROBES = 5
# every run, set-up probes included, must end well within 180 s
RUN_LIMIT_S = 150.0


class RoundError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(spec, timeout):
    """Run one worker process to its end and return its JSON result."""
    spec = dict(spec, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RoundError("worker did not finish within %.0f s" % timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError("worker exited with code %d:\n%s" % (proc.returncode, proc.stderr[-3000:]))
    return json.loads(lines[-1])


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(args, work):
    """Whole rounds until the next one would end past --seconds of real time."""
    spec = {"workload": args.workload, "seed": args.seed, "workdir": str(work), "mode": "round"}
    start = time.monotonic()
    rounds, traced = [], []
    while True:
        began = time.monotonic()
        rounds.append(spawn(dict(spec, trace=False), RUN_LIMIT_S - (began - start)))
        if args.trace:
            traced.append(spawn(dict(spec, trace=True), RUN_LIMIT_S - (time.monotonic() - start)))
        # the next round reuses this round's oracle values, so its checks are cheap
        now = time.monotonic()
        step = now - began - sum(r["check_s"] for r in (rounds[-1:] + traced[-1:]))
        if now - start + step > args.seconds:
            return rounds, traced


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "wiretap" / "__init__.py").is_file():
        sys.stderr.write("error: no wiretap sources under %s\n" % (ROOT / "src"))
        return 2

    work = OUT / ("work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        rounds, traced = measure(args, work)
        probes = [] if args.trace else [
            spawn({"workload": args.workload, "seed": args.seed, "workdir": str(work), "mode": "setup"}, 60)
            for _ in range(SETUP_PROBES)
        ]
    except RoundError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = rounds + traced
    problems = {}
    for r in every:
        for op, items in r["problems"].items():
            problems.setdefault(op, []).extend(items)
    failed = sum(len(r["problems"]) for r in every)
    med = statistics.median
    if args.trace:
        layers = {
            name: {"value": statistics.median_low(t["layers"][name] for t in traced), "unit": unit}
            for name, (_, _, unit) in LAYER_METRICS.items()
        }
        overhead = med(100.0 * (t["wall_s"] - r["wall_s"]) / r["wall_s"] for r, t in zip(rounds, traced))
        layers["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        metrics = layers
    else:
        metrics = {
            "wall_s": {"value": med(r["wall_s"] for r in rounds), "unit": "s"},
            "points_per_s": {"value": med(r["points"] / r["wall_s"] for r in rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": med(r["rss_mb"] for r in rounds), "unit": "MB"},
            "setup_s": {"value": med(r["setup_s"] for r in rounds + probes), "unit": "s"},
        }
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in every),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": rounds[0]["numpy"],
        "blas_threads": BLAS_THREADS,
        "pythonhashseed": "0",
        "machine_settings": "unchanged: no cache dropping, no CPU pinning, no frequency or scheduler settings",
        "rounds": rounds,
        "traced_rounds": traced,
        "setup_probes_s": [p["setup_s"] for p in probes],
        "problems": problems,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    name = "record-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for op, items in problems.items():
        sys.stderr.write("CHECK FAILED %s: %s\n" % (op, items[0]))
    print(json.dumps(result))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
