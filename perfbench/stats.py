"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# A reported percentile needs at least this many samples above it, so one
# stray op cannot move it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank ``q``-quantile of ``n``."""
    return n - math.ceil(q * n)


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples above ``q``."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    The value is always one of the samples.  Raises :class:`TooFewSamples`
    unless at least ``MIN_BEYOND`` samples rank above it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    ordered = sorted(values)
    n = len(ordered)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise TooFewSamples(
            f"{n} samples leave {samples_beyond(n, q)} above the {q:g} quantile, "
            f"need {MIN_BEYOND}"
        )
    return ordered[math.ceil(q * n) - 1]


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
