"""Order statistics used by every metric the benchmark reports."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it.

    The result is always one of the samples (never an interpolation),
    so a reported p90 is a latency some operation really had.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """The nearest-rank p50 (a sample, like every other percentile)."""
    return percentile(values, 50)


def supported_percentile(count: int, tail: int = 10) -> float | None:
    """The highest of p50/p90/p99 with at least ``tail`` samples beyond
    it in a sample of ``count``; None when even p50 is unsupported."""
    best = None
    for pct in (50, 90, 99):
        if count - math.ceil(pct / 100.0 * count) >= tail:
            best = pct
    return best
