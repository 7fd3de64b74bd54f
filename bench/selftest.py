"""Self-test of the benchmark's output checks, without the timed workloads.

    python3 bench/selftest.py

Runs each workload's operations at a small size, requires the check to
pass on the real outputs, then corrupts them and requires the check to
fail: one value off by 1e-6, one sampled table replaced, one word moved
to another bin (and two words swapped between bins, which keeps the
partition but breaks the coset structure).  Exits 1 if any case goes the
wrong way.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import worker
from oracles import direct

SEED = 11


def nudge_csv(path, row, col):
    """Add 1e-6 to one value of a CSV output."""
    lines = path.read_text().splitlines()
    cells = lines[2 + row].split(",")
    cells[col] = "%.12g" % (float(cells[col]) + 1e-6)
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def move_word(bins, swap):
    """Move (or swap) the last word of bin 0 into bin 1, in place."""
    word = bins[0].pop()
    if swap:
        bins[0].append(bins[1].pop(0))
    bins[1].append(word)


def edit_table_file(path, swap):
    lines = path.read_text().splitlines()
    bins = [ln.split() for ln in lines[1:]]
    move_word(bins, swap)
    path.write_text("\n".join([lines[0]] + [" ".join(b) for b in bins]) + "\n")


def failed_ops(ops, check, results):
    return set(worker.check_ops(ops, check, results, {}, direct))


def case(label, got, want):
    """A real output must fail no operation; a corrupted one must fail (at least) `want`."""
    ok = got >= want if want else not got
    print("%s %-58s %s" % ("ok  " if ok else "FAIL", label, sorted(got) or "passes"))
    return ok


def main():
    wiretap = worker.import_program()
    out = worker.ROOT / ".bench_runs"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    outcomes = []
    try:
        small = {
            "limit_curve": dict(form=(2, 1), points=5),
            "table_curve": dict(form=(2, 4), points=5),
            "random_race": dict(form=(3, 2), points=5, samples=300),
            "wide_table": dict(form=(2, 6)),
        }
        built = {}
        for name, sizes in small.items():
            ops, check = worker.WORKLOADS[name](SEED, work, **sizes)
            results, errors = worker.run_ops(ops)
            if errors:
                print("FAIL %s raised: %s" % (name, errors))
                return 1
            built[name] = (ops, check, results)
            outcomes.append(case(name + ": real outputs", failed_ops(ops, check, results), set()))

        ops, check, results = built["limit_curve"]
        nudge_csv(work / "limit.csv", 2, 1)
        outcomes.append(case("limit_curve: rate off by 1e-6", failed_ops(ops, check, results), {"limit"}))

        ops, check, results = built["table_curve"]
        nudge_csv(work / "curve.csv", 2, 1)
        outcomes.append(case("table_curve: bits off by 1e-6", failed_ops(ops, check, results), {"equivocation"}))
        worker.run_ops(ops)
        edit_table_file(work / "table.txt", swap=False)
        outcomes.append(case("table_curve: word moved to another bin", failed_ops(ops, check, results), {"ni"}))
        worker.run_ops(ops)
        edit_table_file(work / "table.txt", swap=True)
        outcomes.append(case("table_curve: words swapped between bins", failed_ops(ops, check, results), {"ni"}))

        ops, check, results = built["random_race"]
        nudge_csv(work / "race.csv", 2, 5)
        outcomes.append(case("random_race: rand_mean off by 1e-6", failed_ops(ops, check, results), {"compare"}))
        sample = wiretap.baselines.sample_binning

        def one_replaced(l, k, seed, count=1):
            # sample count // 2 becomes the unshuffled cut: bin j holds words j*e .. j*e + e - 1
            e = 1 << l
            for i, t in enumerate(sample(l, k, seed, count)):
                yield wiretap.CodeTable(l, k, [range(j * e, j * e + e) for j in range(1 << k)]) if i == count // 2 else t

        wiretap.baselines.sample_binning = one_replaced
        try:
            worker.run_ops(ops)
        finally:
            wiretap.baselines.sample_binning = sample
        outcomes.append(case("random_race: one sampled table replaced", failed_ops(ops, check, results),
                             {"compare"}))

        ops, check, results = built["wide_table"]
        results["total_equivocation_linear"] += 1e-6
        outcomes.append(case("wide_table: equivocation off by 1e-6", failed_ops(ops, check, results),
                             {"total_equivocation_linear"}))
        results, _ = worker.run_ops(ops)
        move_word(results["standard_table"].bins, swap=False)
        outcomes.append(case("wide_table: word moved to another bin", failed_ops(ops, check, results),
                             {"standard_table"}))
        results, _ = worker.run_ops(ops)
        move_word(results["closed_form_table"].bins, swap=True)
        outcomes.append(case("wide_table: closed form with two words swapped", failed_ops(ops, check, results),
                             {"closed_form_table"}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d of %d self-test cases behave as required" % (sum(outcomes), len(outcomes)))
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
