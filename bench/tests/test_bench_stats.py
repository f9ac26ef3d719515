import statistics

import numpy as np
import pytest

from pbench import stats


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.exponential(size=257).tolist()
    for q in (0, 1, 50, 90, 99, 99.9, 100):
        assert stats.percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, want",
    [
        (10_000, 99.9),  # exactly ten samples beyond p99.9
        (9_999, 99.0),
        (1_000, 99.0),   # exactly ten beyond p99
        (999, 95.0),     # 9.99 beyond p99: not enough
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (99, None),
    ],
)
def test_ten_samples_beyond_rule(n, want):
    assert stats.highest_supported_percentile(n) == want


def test_quartiles_are_the_drivers():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = stats.quartiles(xs)
    assert [q1, q2, q3] == statistics.quantiles(xs, n=4)
    assert stats.spread(xs) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0
