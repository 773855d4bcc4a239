"""Machine-speed probe: scales measured times to a reference machine speed.

Neighbours on a shared host slow this process by up to ~60 % for stretches
of seconds to minutes, and the slowdown shows in its CPU time as well, so
raw wall times do not repeat from run to run however they are summarised
(see README.md, "Machine"). The probe times a fixed piece of work of the
same kind as the jobs (Python object allocation, dict building, a numpy
sort) right before and right after each measured step, and the step's wall
time is scaled by PROBE_REFERENCE_S over the mean of the two samples.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's median time on the 2-vCPU Xeon host the bounds were set on,
# so that scaled times read close to wall seconds there.
PROBE_REFERENCE_S = 0.015
# how long one probe sample runs the probe work
PROBE_SECONDS = 0.15
# a probe taken this recently stands for "now"
REUSE_S = 0.005


def _work() -> float:
    t0 = time.perf_counter()
    rows = [(i, float(i), str(i)) for i in range(20000)]
    {row[2]: row[1] for row in rows}
    np.sort(np.arange(200000, dtype=np.float64)[::-1])
    return time.perf_counter() - t0


class Probe:
    """Samples the probe work; a sample taken just now is reused."""

    def __init__(self) -> None:
        self.spent = 0.0  # wall seconds spent probing
        self.samples: list[float] = []
        self._last: tuple[float, float] | None = None  # (sample, perf_counter when taken)

    def sample(self) -> float:
        now = time.perf_counter()
        if self._last is not None and now - self._last[1] < REUSE_S:
            return self._last[0]
        times = []
        while not times or time.perf_counter() - now < PROBE_SECONDS:
            times.append(_work())
        end = time.perf_counter()
        self.spent += end - now
        self._last = (statistics.median(times), end)
        self.samples.append(self._last[0])
        return self._last[0]


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds measured between two probe samples, at the reference speed."""
    return seconds * PROBE_REFERENCE_S * 2 / (before + after)
