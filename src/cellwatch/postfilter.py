"""Post-processing filters: raw window flags -> anomaly events.

Three filters run in a fixed order, each targeting one false-alarm mode:

1. persistence -- a flagged window survives only if it lies inside some run
   of ``persistence_n`` consecutive windows containing at least
   ``persistence_m`` flags (isolated blips die here);
2. merge -- surviving windows separated by at most ``merge_gap`` quiet
   windows coalesce into one event (de-fragmentation);
3. peak floor -- events whose best score stays below ``min_peak_score`` are
   dropped (marginal episodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baseline import Direction, ScoredWindow


@dataclass(frozen=True)
class FilterConfig:
    persistence_m: int = 2
    persistence_n: int = 3
    merge_gap: int = 2
    min_peak_score: float = 6.0

    def __post_init__(self) -> None:
        if not 1 <= self.persistence_m <= self.persistence_n:
            raise ValueError("need 1 <= persistence_m <= persistence_n")
        if self.merge_gap < 0:
            raise ValueError("merge_gap must be >= 0")
        if not math.isfinite(self.min_peak_score):
            raise ValueError("min_peak_score must be finite")


@dataclass
class AnomalyEvent:
    """A post-filtered degradation episode on one (cell, KQI); one events line."""

    cell_id: str
    metric_name: str = field(metadata={"json": "metric"})
    start_window: int
    end_window: int
    peak_score: float
    peak_window: int
    direction: Direction


def _persistence_survivors(flags: list[bool], m: int, n: int) -> list[int]:
    """Indices of flagged windows covered by an n-window span with >= m flags.

    Spans are clipped at the stream boundaries; windows outside the stream
    count as unflagged, so a stream shorter than n is a single span.
    """
    if not flags:
        return []
    flagged = np.asarray(flags, dtype=np.int64)
    span = np.ones(min(n, len(flags)), dtype=np.int64)
    dense = np.convolve(flagged, span, "valid") >= m  # by span start
    covered = np.convolve(dense, span)[: len(flags)] > 0  # by window: some dense span holds it
    return np.flatnonzero(flagged & covered).tolist()


def apply_filters(
    scored: list[ScoredWindow],
    cfg: FilterConfig,
    *,
    cell_id: str,
    metric_name: str,
) -> list[AnomalyEvent]:
    """Run persistence -> merge -> peak-floor over one scored stream.

    ``scored`` must be window-ordered and grid-contiguous (score_series
    output). Events come back in chronological order; every event span
    contains at least one raw-flagged window and the peak is taken over the
    raw-flagged windows inside the span.
    """
    if not scored:
        return []
    flags = [sw.flagged for sw in scored]
    survivors = _persistence_survivors(flags, cfg.persistence_m, cfg.persistence_n)
    if not survivors:
        return []

    # coalesce survivor indices separated by at most merge_gap quiet windows
    groups: list[list[int]] = [[survivors[0]]]
    for idx in survivors[1:]:
        if idx - groups[-1][-1] - 1 <= cfg.merge_gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])

    events: list[AnomalyEvent] = []
    for group in groups:
        lo, hi = group[0], group[-1]
        flagged_in_span = [i for i in range(lo, hi + 1) if flags[i]]
        peak_idx = max(flagged_in_span, key=lambda i: scored[i].score.score)
        peak = scored[peak_idx]
        if peak.score.score < cfg.min_peak_score:
            continue
        events.append(
            AnomalyEvent(
                cell_id=cell_id,
                metric_name=metric_name,
                start_window=scored[lo].window_start,
                end_window=scored[hi].window_start,
                peak_score=peak.score.score,
                peak_window=peak.window_start,
                direction=peak.score.direction,
            )
        )
    return events
