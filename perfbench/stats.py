"""Order statistics for the benchmark, computed from raw samples.

Percentiles are nearest-rank order statistics: the p-th percentile of n
samples is the ceil(p/100 * n)-th smallest. Nothing is interpolated or
bucketed, so a reported value is always one that was measured.
"""

import math
import statistics


def percentile(samples, p):
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples):
    return percentile(samples, 50)


def latencies_from_due(due, done):
    """Per-request latency of an open-loop stream: completion time minus the
    time the request was due to be sent, never minus the time it was sent."""
    if len(due) != len(done):
        raise ValueError("due and done times differ in length")
    return [d - s for s, d in zip(due, done)]


def relative_spread(values):
    """Interquartile range over the median, with the quartiles Python's
    ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
