"""Sample statistics the benchmark reports: medians, tails, spreads.

Pure functions over lists of floats, so the reporting rules can be
tested without running anything.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "percentile",
    "highest_supported_percentile",
    "median",
    "quartiles",
    "spread",
]

#: Candidate tail percentiles, highest first, as (percentile, samples
#: beyond it per thousand): integers, so the count is exact.
_TAILS = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100))


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile by linear interpolation (NumPy's default)."""
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def highest_supported_percentile(n: int, *, beyond: int = 10) -> float | None:
    """The highest of 99.9/99/95/90 with at least ``beyond`` samples above it.

    The guide's rule for which tail a sample can support: p99 of 1000
    samples has ten beyond it, p99 of 999 does not. Returns None when
    even p90 is unsupported (fewer than ``10 * beyond`` samples).
    """
    for q, per_thousand in _TAILS:
        if n * per_thousand >= beyond * 1000:
            return q
    return None


median = statistics.median


def quartiles(samples) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives them;
    a single sample is its own quartiles."""
    xs = [float(x) for x in samples]
    if not xs:
        raise ValueError("no samples")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(samples) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    q1, q2, q3 = quartiles(samples)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)
