import pytest

from e2e_bench.stats import TooFewSamples, median, tail_percentile


def test_p90_is_refused_under_100_samples():
    with pytest.raises(TooFewSamples):
        tail_percentile(list(range(99)), 90)
    assert tail_percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_the_rule_scales_with_the_percentile():
    with pytest.raises(TooFewSamples):
        tail_percentile(list(range(999)), 99)
    tail_percentile(list(range(1000)), 99)


def test_median_of_nothing_is_refused():
    with pytest.raises(TooFewSamples):
        median([])
