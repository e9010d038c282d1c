"""Order statistics for latency samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between the two
    nearest ranks — the estimator ``numpy.percentile`` defaults to."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``
    percentile's rank.  A percentile is only reported as such when at
    least ten samples lie beyond it (choosing-metrics, section 1)."""
    return count - 1 - math.floor(q * (count - 1))


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the driver compares with a metric's bound."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return (q3 - q1) / mid if mid else math.inf
