"""The percentile rule of the benchmark report."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402


def test_nearest_rank_returns_a_sample():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.9) == 90.0
    assert stats.percentile(reversed(values), 0.5) == 50.0


def test_p90_needs_ten_samples_beyond_it():
    assert stats.min_samples(0.9) == 100
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.percentile(range(100), 0.9) == 89
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(99), 0.9)


def test_median_needs_ten_samples_beyond_it():
    assert stats.min_samples(0.5) == 20
    stats.percentile(range(20), 0.5)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(19), 0.5)


def test_quantile_must_lie_inside_the_unit_interval():
    with pytest.raises(ValueError):
        stats.percentile(range(1000), 1.0)


def test_spread_is_interquartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == (1.5, 3.0, 4.5)
    assert stats.spread(values) == pytest.approx(1.0)


def test_reference_times_use_the_slices_around_each_op():
    import speed

    ref = speed.REFERENCE_S
    # op i ran between slices[i] and slices[i + 1]
    slices = [0.002, 0.004, 0.004, 0.002, 0.002]
    times = speed.reference_times([1.0, 1.0, 1.0, 1.0], slices)
    assert times == pytest.approx([ref / 0.004, ref / 0.003, ref / 0.003, ref / 0.002])
