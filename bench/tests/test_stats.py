import pytest

from bench.stats import percentile, samples_beyond, spread


def test_percentile_interpolates_between_ranks():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 4.0
    assert percentile(samples, 0.5) == 2.5
    assert percentile(list(range(101)), 0.9) == 90


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_samples_beyond_counts_what_lies_above_the_rank():
    # the issue's rule: 150 samples leave more than ten beyond p90
    assert samples_beyond(150, 0.9) == 15
    assert samples_beyond(101, 0.9) == 10
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(600, 0.99) == 6
    assert samples_beyond(10, 0.5) == 5


def test_spread_is_interquartile_distance_over_median():
    values = [10, 10.5, 9.5, 10, 10.2, 9.8, 10.1, 9.9, 10, 10]
    assert 0 < spread(values) < 0.05
