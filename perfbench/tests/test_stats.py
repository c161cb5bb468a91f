import pytest

from perfbench.stats import TooFewSamples, min_samples, percentile, supported


def test_tail_needs_ten_samples_beyond():
    assert min_samples(90) == 100
    assert min_samples(99) == 1000
    assert min_samples(75) == 40
    assert supported(100, 90) and not supported(99, 90)
    assert supported(1000, 99) and not supported(999, 99)


def test_median_needs_one_sample():
    assert supported(1, 50)
    assert not supported(0, 50)
    assert percentile([3.0], 50) == 3.0


def test_unsupported_percentile_raises():
    with pytest.raises(TooFewSamples):
        percentile(range(99), 90)


def test_percentile_interpolates_like_numpy():
    import numpy as np

    values = [float(v) for v in np.random.default_rng(0).exponential(size=250)]
    for pct in (50, 75, 90, 95):
        assert percentile(values, pct) == pytest.approx(float(np.percentile(values, pct)))
