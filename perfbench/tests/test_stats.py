import pytest

import stats


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 50).value == 50
    assert stats.percentile(values, 99).value == 99
    assert stats.percentile(values, 100).value == 100
    assert stats.percentile(reversed(values), 50).value == 50


def test_p99_keeps_ten_samples_beyond_it():
    p99 = stats.tail([float(i) for i in range(1000)], 99)
    assert p99.count == 1000
    assert p99.beyond == 10
    assert p99.value == 989.0
    with pytest.raises(stats.TooFewSamples):
        stats.tail([float(i) for i in range(999)], 99)


def test_percentile_reports_its_sample_count():
    median = stats.percentile([3.0, 1.0, 2.0], 50)
    assert (median.value, median.count, median.beyond) == (2.0, 3, 1)


def test_highest_supported_percentile_depends_on_sample_count():
    assert stats.highest_supported(range(10_000)).q == 99.9
    assert stats.highest_supported(range(1_000)).q == 99.0
    assert stats.highest_supported(range(200)).q == 95.0
    assert stats.highest_supported(range(15)).q == 50.0


def test_spread_is_interquartile_distance_over_median():
    assert stats.spread([10.0] * 10) == 0.0
    values = [8, 9, 10, 10, 10, 10, 10, 10, 11, 12]
    q1, q2, q3 = 9.75, 10.0, 10.25
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
