"""Log-scaled histograms vs a sorted-list oracle.

The contract (docstring of :class:`LogHistogram`): ``percentile(q)`` is
deterministic and bracketed — the exact rank-``q`` order statistic lies
within ``percentile_bounds(q)``, whose width is one geometric bucket
(a factor of ``10**(1/per_decade)``).
"""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.metrics.histogram import LogHistogram


def oracle_percentile(values, q):
    """Exact rank-based percentile: the value at ceil(q/100 * n)."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("q", [50, 90, 95, 99, 100])
    def test_exact_value_within_bounds(self, seed, q):
        rng = random.Random(seed)
        values = [rng.lognormvariate(1.0, 2.0) for _ in range(2000)]
        hist = LogHistogram("t")
        for v in values:
            hist.record(v)
        exact = oracle_percentile(values, q)
        lo, hi = hist.percentile_bounds(q)
        assert lo <= exact <= hi
        # bracket width is one geometric bucket
        assert hi / max(lo, 1e-12) <= 10 ** (1 / 32) * 1.0001

    @pytest.mark.parametrize("q", [50, 95, 99])
    def test_point_estimate_within_one_bucket_of_exact(self, q):
        rng = random.Random(7)
        values = [rng.uniform(0.5, 500.0) for _ in range(1000)]
        hist = LogHistogram("t")
        for v in values:
            hist.record(v)
        exact = oracle_percentile(values, q)
        estimate = hist.percentile(q)
        ratio = estimate / exact
        width = 10 ** (1 / 32)
        assert 1 / width / 1.0001 <= ratio <= width * 1.0001

    def test_deterministic(self):
        values = [1.0, 2.5, 2.5, 40.0, 0.003, 77777.0]
        a, b = LogHistogram("a"), LogHistogram("b")
        for v in values:
            a.record(v)
            b.record(v)
        for q in (1, 25, 50, 75, 99):
            assert a.percentile(q) == b.percentile(q)


class TestEdges:
    def test_single_value_percentiles_collapse(self):
        hist = LogHistogram("t")
        hist.record(42.0)
        for q in (0, 50, 100):
            assert hist.percentile(q) == 42.0

    def test_estimate_clamped_to_observed_extrema(self):
        hist = LogHistogram("t")
        for v in (3.0, 4.0, 5.0):
            hist.record(v)
        assert hist.percentile(100) <= 5.0
        assert hist.percentile(0) >= 3.0

    def test_under_and_overflow_still_counted(self):
        hist = LogHistogram("t", low=1.0, high=100.0)
        hist.record(1e-9)
        hist.record(1e9)
        assert hist.count == 2
        assert hist.minimum == 1e-9
        assert hist.maximum == 1e9
        # clamping keeps percentiles inside what was actually observed;
        # the underflow bucket only brackets down to ``low``
        assert hist.percentile(100) == 1e9
        assert 1e-9 <= hist.percentile(1) <= hist.low

    def test_rejects_non_finite(self):
        hist = LogHistogram("t")
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                hist.record(bad)
        assert hist.count == 0

    def test_empty_snapshot(self):
        snap = LogHistogram("t").snapshot()
        assert snap["count"] == 0

    def test_snapshot_keys(self):
        hist = LogHistogram("t")
        for v in (1.0, 10.0, 100.0):
            hist.record(v)
        snap = hist.snapshot()
        assert set(snap) == {
            "count", "mean", "min", "max", "p50", "p90", "p95", "p99",
        }
        assert snap["count"] == 3
        assert snap["mean"] == pytest.approx(37.0)

    def test_buckets_cover_all_in_range_counts(self):
        hist = LogHistogram("t")
        for v in (1.0, 1.0, 50.0, 1234.5):
            hist.record(v)
        assert sum(count for _, _, count in hist.buckets()) == 4
        for lo, hi, _ in hist.buckets():
            assert lo < hi
