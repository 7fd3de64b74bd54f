import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from wiretap import baselines, equivocation
from wiretap.baselines import (
    DEFAULT_SAMPLES,
    RNG_ALGORITHM,
    binary_entropy,
    binning_code_count,
    compare_form,
    enumerate_binnings,
    infinite_blocklength_limit,
    sample_binning,
)
from wiretap.bitcore import CapExceeded, CodeTable, partition_of, tables_equal_ordered
from wiretap.equivocation import equivocation_curve, total_equivocation
from wiretap.ni_code import standard_table

from partition_check import is_partition
from traced_peak import peak_bytes


def test_sampler_yields_valid_tables():
    for t in sample_binning(2, 2, seed=19, count=8):
        assert is_partition(t)


def test_sampler_is_reproducible():
    a = list(sample_binning(1, 3, seed=99, count=6))
    b = list(sample_binning(1, 3, seed=99, count=6))
    for x, y in zip(a, b):
        assert tables_equal_ordered(x, y)


def test_sampler_streams_are_prefix_stable():
    # sample i depends only on (seed, i), so short runs are prefixes of long ones
    short = list(sample_binning(2, 1, seed=4, count=3))
    long = list(sample_binning(2, 1, seed=4, count=10))
    for x, y in zip(short, long):
        assert tables_equal_ordered(x, y)
    assert not tables_equal_ordered(long[0], long[1])


def test_sampler_seeds_differ():
    a = next(iter(sample_binning(2, 2, seed=0, count=1)))
    b = next(iter(sample_binning(2, 2, seed=1, count=1)))
    assert not tables_equal_ordered(a, b)


def test_sampler_count_domain():
    with pytest.raises(ValueError):
        list(sample_binning(1, 1, seed=0, count=0))


def test_sampled_table_keeps_engine_invariants():
    t = next(iter(sample_binning(1, 4, seed=1234, count=1)))
    assert abs(total_equivocation(t, 0.5) - 4.0) < 1e-12


def test_sampler_partition_frequencies():
    # form (1,1) has exactly 3 partitions; each should land 1/3 +- 0.02
    counts = Counter()
    total = 10_000
    for t in sample_binning(1, 1, seed=7, count=total):
        counts[partition_of(t)] += 1
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / total - 1 / 3) < 0.02


def test_sampler_uniform_over_partition_space():
    """Chi-square at the 0.001 level over the 3 partitions of form (1,1)."""
    counts = Counter()
    total = 100_000
    for t in sample_binning(1, 1, seed=12, count=total):
        counts[partition_of(t)] += 1
    assert len(counts) == 3
    expected = total / 3
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < scipy.stats.chi2.ppf(1 - 0.001, df=2)


def test_enumerate_binnings_small_spaces():
    tables = list(enumerate_binnings(1, 1))
    assert len(tables) == 6
    assert len({tuple(tuple(b) for b in t.bins) for t in tables}) == 6
    assert len({partition_of(t) for t in tables}) == 3
    for t in tables:
        assert is_partition(t)
    assert len(list(enumerate_binnings(2, 1))) == 70
    assert len(list(enumerate_binnings(1, 2))) == 2520


def _enumerate_by_recursion(l, k):
    """The recursion the array enumeration replaced, in its block layout: bins filled
    left to right with each combination of the remaining words."""
    n, e = l + k, 1 << l

    def fill(remaining):
        if not remaining:
            yield []
            return
        for combo in itertools.combinations(remaining, e):
            chosen = set(combo)
            for tail in fill([w for w in remaining if w not in chosen]):
                yield [*combo, *tail]

    tables = fill(list(range(1 << n)))
    while block := list(itertools.islice(tables, baselines._block_size(n))):
        yield np.array(block, dtype=np.uint32).reshape(-1, 1 << k, e)


@pytest.mark.parametrize("form", [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (0, 3), (3, 1)])
def test_enumerated_blocks_equal_the_recursion(form):
    """The array enumeration gives the recursion's tables in its order and its blocks."""
    got, want = list(baselines._enumerate_blocks(*form)), list(_enumerate_by_recursion(*form))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_enumerate_matches_count_formula():
    for l, k in ((1, 1), (2, 1), (1, 2), (0, 2)):
        ordered = math.factorial(1 << l + k) // math.factorial(1 << l) ** (1 << k)
        assert len(list(enumerate_binnings(l, k))) == ordered == baselines.table_count(l, k)[0]
    assert baselines.table_count(2, 2)[0] == binning_code_count(2, 2) * math.factorial(4) == 63_063_000


def test_table_count_sizes_by_log_gamma_as_the_exact_count_does():
    """Every form of n <= 11: the count is formed just when it has at most COUNT_DIGITS_CAP digits,
    and its text spells it out up to 30 digits and names its digit count past that."""
    for n in range(1, 12):
        for l in range(n):
            k = n - l
            for ordered in (True, False):
                exact = math.factorial(1 << n) // math.factorial(1 << l) ** (1 << k)
                if not ordered:
                    exact //= math.factorial(1 << k)
                digits = int(math.log10(exact)) + 1
                assert 10 ** (digits - 1) <= exact < 10 ** digits
                count, text = baselines.table_count(l, k, ordered)
                assert (count is None) == (digits > baselines.COUNT_DIGITS_CAP)
                if count is not None:
                    assert count == exact
                if digits <= 30:
                    assert text == str(exact)
                else:
                    assert text == "a %d-digit number of" % digits


def test_enumerate_binnings_limit():
    with pytest.raises(ValueError) as exc:
        list(enumerate_binnings(2, 2))
    assert "past limit" in str(exc.value)


def test_binning_code_count_values():
    assert binning_code_count(0, 1) == 1
    assert binning_code_count(1, 1) == 3
    assert binning_code_count(2, 1) == 35
    assert binning_code_count(1, 4) == 191898783962510625
    assert binning_code_count(4, 1) == 300540195


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    for p in (0.1, 0.27, 0.44):
        assert abs(binary_entropy(p) - binary_entropy(1 - p)) < 1e-15
    assert abs(binary_entropy(0.11) - 0.4999) < 1e-3
    with pytest.raises(ValueError):
        binary_entropy(-0.2)


def test_infinite_blocklength_limit():
    assert abs(infinite_blocklength_limit(0.5, 0.8) - 0.8) < 1e-15
    assert infinite_blocklength_limit(0.0, 0.8) == 0.0
    got = infinite_blocklength_limit(0.11, 0.5)
    assert abs(got - binary_entropy(0.11)) < 1e-15
    assert abs(infinite_blocklength_limit(0.3, 0.2) - 0.2) < 1e-15
    with pytest.raises(ValueError):
        infinite_blocklength_limit(0.3, 0.0)
    with pytest.raises(ValueError):
        infinite_blocklength_limit(0.3, 1.2)


def test_compare_form_record_shape():
    grid = [0.0, 0.25, 0.5]
    record = compare_form(1, 2, grid, samples=30, seed=5)
    assert record["form"] == (1, 2)
    assert record["samples"] == 30
    assert record["seed"] == 5
    assert record["algorithm"] == RNG_ALGORITHM
    assert record["exhaustive"] is False
    assert DEFAULT_SAMPLES == 10_000
    assert len(record["rows"]) == 3
    for p, row in zip(grid, record["rows"]):
        assert row["p"] == p
        # identical rates can round either way inside the mean
        assert row["rand_min"] <= row["rand_mean"] + 1e-12
        assert row["rand_mean"] <= row["rand_max"] + 1e-12
        assert row["rand_max"] <= row["lp_limit"] + 1e-9
        assert row["ni_rate"] <= row["lp_limit"] + 1e-9
        assert abs(row["inf_limit"] - infinite_blocklength_limit(p, 2 / 3)) < 1e-15
        # bin size two attains the limit, so nothing sampled can beat it
        assert row["rand_max"] <= row["ni_rate"] + 1e-9


def test_compare_form_exhaustive():
    record = compare_form(2, 1, [0.1, 0.3], exhaustive=True)
    assert record["samples"] == 70
    assert record["seed"] is None
    assert record["algorithm"] is None
    assert record["exhaustive"] is True
    for row in record["rows"]:
        assert row["rand_max"] <= row["ni_rate"] + 1e-12


def test_compare_form_blocklength_guard():
    with pytest.raises(CapExceeded):
        compare_form(6, 7, [0.1])


def test_compare_form_memory_does_not_grow_with_samples():
    """Over 1,001 points the traced peak of 400 tables stays within 10% of 20 tables'."""
    grid = [float(p) for p in np.linspace(0.0, 0.5, 1001)]
    compare_form(1, 1, grid, samples=2, seed=0)  # first-call allocations are not the point
    peaks = [peak_bytes(lambda: compare_form(1, 1, grid, samples=samples, seed=0)) for samples in (20, 400)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_compare_form_folds_many_slabs_like_per_table_curves(monkeypatch):
    """A small _CHUNK_CELLS cuts the sampled blocks of (3,2) tables into kernel views
    of 32 tables, one chunk each of the observations z < 16, whose rows are priced
    at every grid row and its reversal (the complements z ^ 31), and a 1,001-point
    grid into many slabs, none past its value budget; max, mean and min still equal
    those of per-table equivocation_curve."""
    grid = [float(p) for p in np.linspace(0.0, 0.5, 1001)]
    rates = np.array([equivocation_curve(t, grid).bits / 5 for t in sample_binning(3, 2, 11, count=300)])
    kernel, price = equivocation._types, equivocation.objective_coefficients
    tables, widths, slabs = [], [], []

    def spy_kernel(block, zs, n):
        assert block.size * len(zs) <= equivocation._CHUNK_CELLS
        assert zs.tolist() == ([0] if len(tables) == 0 else list(range(16)))
        rows, counts = kernel(block, zs, n)
        tables.append(len(block))
        widths.append(max(len(block), len(rows)))
        return rows, counts

    def spy_price(rows, gamma):
        # a slab holds grid rows x max(tables, profiles) values, or one grid row
        assert len(gamma) == 1 or len(gamma) * widths[-1] <= equivocation._CHUNK_CELLS >> 4
        slabs.append(len(gamma))
        return price(rows, gamma)

    monkeypatch.setattr(equivocation, "_CHUNK_CELLS", 1 << 14)
    monkeypatch.setattr(equivocation, "_types", spy_kernel)
    monkeypatch.setattr(equivocation, "objective_coefficients", spy_price)
    record = compare_form(3, 2, grid, samples=300, seed=11)
    assert record["samples"] == 300 and record["routes"] == {"coset": 0, "full": 300}
    # the family's coset table at z = 0, then 10 views (32 tables, the last 12),
    # each one chunk of 16 observations, priced with their 16 complements
    assert tables == [1] + [32] * 9 + [12]
    assert sum(slabs) == (2 * len(widths) - 1) * len(grid) and len(slabs) > 10 * len(widths)
    for row, hi, mean, lo in zip(record["rows"], rates.max(0), rates.mean(0), rates.min(0)):
        assert abs(row["rand_max"] - hi) <= 1e-12
        assert abs(row["rand_mean"] - mean) <= 1e-12
        assert abs(row["rand_min"] - lo) <= 1e-12


def test_exhaustive_baseline_builds_no_table(monkeypatch):
    """compare_form's exhaustive baseline streams word blocks to ensemble_bits, as the
    sampler does: the only tables it builds are the family's, which standard_table
    alone builds too, not one per enumerated table."""
    settle, built = CodeTable._settle, []

    def spy_settle(self, l, k, array):
        built.append((l, k))
        return settle(self, l, k, array)

    monkeypatch.setattr(CodeTable, "_settle", spy_settle)
    standard_table(2, 1)
    family = list(built)
    built.clear()
    record = compare_form(2, 1, [0.0, 0.1, 0.5], exhaustive=True)
    assert record["samples"] == 70 and built == family


def test_sampler_streams_equal_a_fresh_philox_generator_per_sample(monkeypatch):
    """Sample i of a seed is Generator(Philox(key=[seed, i])).permutation, across blocks."""
    for l, k, size in ((3, 2, None), (1, 2, 5)):
        if size:
            monkeypatch.setattr(baselines, "_block_size", lambda n: size)
        n = l + k
        for seed in (0, 1, 7, 2**40, -3):
            samples = list(sample_binning(l, k, seed, count=300))
            for i in (0, 1, 2, 4, 5, 37, 255, 256, 299):
                rng = np.random.Generator(np.random.Philox(key=[seed, i]))
                assert samples[i].array.tolist() == rng.permutation(1 << n).reshape(1 << k, 1 << l).tolist()


def test_sampler_keys_seeds_past_2_63_exactly():
    """Seeds in [2**63, 2**64) are their own uint64 key word, not a float-rounded one."""
    for l, k in ((2, 2), (1, 2)):
        n = l + k
        for seed, other in ((2**63 + 1, 2**63), (2**64 - 1, 0)):
            samples = list(sample_binning(l, k, seed, count=6))
            others = list(sample_binning(l, k, other, count=6))
            for i, t in enumerate(samples):
                rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
                assert t.array.tolist() == rng.permutation(1 << n).reshape(1 << k, 1 << l).tolist()
            assert any(not tables_equal_ordered(a, b) for a, b in zip(samples, others))
    # numpy integers key as the Python integers they equal
    for seed in (np.int64(-3), np.uint64(2**64 - 1)):
        assert tables_equal_ordered(next(sample_binning(2, 2, seed)), next(sample_binning(2, 2, int(seed))))


def test_seeds_outside_the_key_range_raise_before_sampling():
    for seed in (2**64, -(2**63) - 1, 10**30):
        with pytest.raises(ValueError, match="seed"):
            next(sample_binning(2, 2, seed))
        with pytest.raises(ValueError, match="seed"):
            compare_form(2, 2, [0.1], samples=5, seed=seed)
    # both ends of the range are kept
    next(sample_binning(2, 2, -(2**63)))
    next(sample_binning(2, 2, 2**64 - 1))


def test_compare_form_needs_a_sample():
    with pytest.raises(ValueError):
        compare_form(2, 2, [0.1], samples=0)


def test_compare_form_folds_blocks_like_per_table_curves(monkeypatch):
    """max, mean and min equal those of per-table equivocation_curve when blocks split mid-stream."""
    grid = [0.0, 0.07, 0.25, 0.41, 0.5]
    cases = [(2, 1, dict(exhaustive=True), enumerate_binnings(2, 1)),
             (3, 2, dict(samples=300, seed=11), sample_binning(3, 2, 11, count=300))]
    default = baselines._block_size
    for l, k, kwargs, tables in cases:
        n = l + k
        tables = list(tables)
        rates = np.array([equivocation_curve(t, grid).bits / n for t in tables])
        routes = [equivocation_curve(t, [0.1]).route for t in tables]
        for size in (3, 7, None):
            monkeypatch.setattr(baselines, "_block_size", lambda n: size or default(n))
            record = compare_form(l, k, grid, **kwargs)
            assert record["samples"] == len(tables)
            assert record["routes"] == {"coset": routes.count("coset"), "full": routes.count("full")}
            for row, hi, mean, lo in zip(record["rows"], rates.max(0), rates.mean(0), rates.min(0)):
                assert abs(row["rand_max"] - hi) <= 1e-12
                assert abs(row["rand_mean"] - mean) <= 1e-12
                assert abs(row["rand_min"] - lo) <= 1e-12
    # blocks of 3 of the 70 exhaustive (2,1) tables mix both routes
    routes = [equivocation_curve(t, [0.1]).route for t in enumerate_binnings(2, 1)]
    assert {"coset", "full"} in [set(routes[i : i + 3]) for i in range(0, len(routes), 3)]
