"""Summary statistics shared by every workload of the benchmark.

Percentiles use linear interpolation between order statistics (NumPy's
default), and a tail percentile is only reported when at least ten samples
lie beyond it: with fewer, one outlier decides the figure.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Fewest samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, pct: float) -> float:
    """How many of ``n`` samples lie beyond the ``pct``-th percentile."""
    return n * (100.0 - pct) / 100.0


def supported(n: int, pct: float) -> bool:
    """Whether ``n`` samples support reporting the ``pct``-th percentile.

    The median needs only one sample; a tail percentile (above the median)
    needs at least :data:`MIN_BEYOND` samples beyond it.
    """
    if n < 1:
        return False
    return pct <= 50.0 or samples_beyond(n, pct) >= MIN_BEYOND


def min_samples(pct: float) -> int:
    """Smallest sample count for which :func:`supported` holds."""
    if pct <= 50.0:
        return 1
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - pct) - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values``; raises when unsupported."""
    ordered = sorted(float(v) for v in values)
    if not supported(len(ordered), pct):
        raise TooFewSamples(
            f"p{pct:g} needs {min_samples(pct)} samples, got {len(ordered)}"
        )
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The median (50th percentile) of a non-empty sample."""
    return percentile(values, 50.0)


def median_or_zero(values: Sequence[float]) -> float:
    """The median, or 0.0 for an empty sample (a layer that did no work)."""
    return median(values) if len(values) else 0.0
