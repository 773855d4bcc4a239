"""Summary statistics used by the benchmark."""

from __future__ import annotations

import math
import statistics

# percentiles the benchmark may report, highest first
TAIL_CHOICES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_CHOICES:
        if n - rank(n, p) >= MIN_BEYOND:
            return p
    return None


def rank(n: int, p: float) -> int:
    """1-based nearest-rank position of percentile p among n sorted samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def job_seconds(steps: dict[str, list[float]]) -> float:
    """A job's time: the sum over its steps of each step's median repetition.

    A burst of neighbour load then moves only the samples of the steps it
    overlaps, not whole repetitions.
    """
    return sum(statistics.median(durations) for durations in steps.values())
