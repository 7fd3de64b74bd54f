import math
import tracemalloc
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
from wiretap.bitcore import partition_of, tables_equal_ordered
from wiretap.equivocation import equivocation_curve, total_equivocation

from partition_check import is_partition


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


def test_enumerate_matches_count_formula():
    for l, k in ((1, 1), (2, 1), (1, 2)):
        ordered = binning_code_count(l, k) * math.factorial(1 << k)
        assert len(list(enumerate_binnings(l, k))) == ordered


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
    with pytest.raises(ValueError):
        compare_form(6, 7, [0.1])


def test_compare_form_memory_does_not_grow_with_samples():
    """Over 1,001 points the traced peak of 400 tables stays within 10% of 20 tables'."""
    grid = [float(p) for p in np.linspace(0.0, 0.5, 1001)]
    compare_form(1, 1, grid, samples=2, seed=0)  # first-call allocations are not the point
    peaks = []
    for samples in (20, 400):
        tracemalloc.start()
        try:
            compare_form(1, 1, grid, samples=samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_compare_form_folds_many_slabs_like_per_table_curves(monkeypatch):
    """A small _CHUNK_CELLS splits each block of 64 (3,2) tables into several kernel
    chunks and a 1,001-point grid into many slabs, none past its value budget; max,
    mean and min still equal those of per-table equivocation_curve."""
    grid = [float(p) for p in np.linspace(0.0, 0.5, 1001)]
    rates = np.array([equivocation_curve(t, grid).bits / 5 for t in sample_binning(3, 2, 11, count=300)])
    kernel, price = equivocation._types, equivocation.objective_coefficients
    widths, slabs = [], []

    def spy_kernel(block, zs):
        rows, counts = kernel(block, zs)
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
    # 5 blocks (64 tables, the last 44), each in 4 chunks of 8 observations
    assert len(widths) == 5 * 4
    assert sum(slabs) == len(widths) * len(grid) and len(slabs) > 10 * len(widths)
    for row, hi, mean, lo in zip(record["rows"], rates.max(0), rates.mean(0), rates.min(0)):
        assert abs(row["rand_max"] - hi) <= 1e-12
        assert abs(row["rand_mean"] - mean) <= 1e-12
        assert abs(row["rand_min"] - lo) <= 1e-12


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
