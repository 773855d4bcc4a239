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

from .baseline import _DIRECTIONS, Direction


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


def _persistence_survivors(flags: np.ndarray | list[bool], m: int, n: int) -> np.ndarray:
    """Indices of flagged windows covered by an n-window span with >= m flags.

    Spans are clipped at the stream boundaries; windows outside the stream
    count as unflagged, so a stream shorter than n is a single span.
    """
    flagged = np.asarray(flags, dtype=bool)
    if not len(flagged):
        return np.zeros(0, dtype=np.intp)
    span = np.ones(min(n, len(flagged)), dtype=np.int64)
    dense = np.convolve(flagged, span, "valid") >= m  # by span start
    covered = np.convolve(dense, span)[: len(flagged)] > 0  # by window: some dense span holds it
    return np.flatnonzero(flagged & covered)


def apply_filters(
    scored: np.recarray,
    cfg: FilterConfig,
    *,
    cell_id: str,
    metric_name: str,
) -> list[AnomalyEvent]:
    """Run persistence -> merge -> peak-floor over one scored stream.

    ``scored`` must be window-ordered and grid-contiguous (score_series
    output). Events come back in chronological order; every event span
    contains at least one raw-flagged window and the peak is the first
    maximum score among the raw-flagged windows inside the span.
    """
    flags = scored.flagged
    survivors = _persistence_survivors(flags, cfg.persistence_m, cfg.persistence_n)
    if not len(survivors):
        return []
    # survivors at most merge_gap quiet windows apart coalesce into one event
    cuts = np.flatnonzero(np.diff(survivors) > cfg.merge_gap + 1)
    firsts = survivors[np.concatenate(([0], cuts + 1))].tolist()
    lasts = survivors[np.append(cuts, len(survivors) - 1)].tolist()
    candidates = np.where(flags, scored.score, -np.inf)  # only a flagged window can be the peak
    starts = scored.window_start

    events: list[AnomalyEvent] = []
    for lo, hi in zip(firsts, lasts):
        peak = lo + int(np.argmax(candidates[lo : hi + 1]))
        if candidates[peak] < cfg.min_peak_score:
            continue
        events.append(
            AnomalyEvent(
                cell_id=cell_id,
                metric_name=metric_name,
                start_window=int(starts[lo]),
                end_window=int(starts[hi]),
                peak_score=float(candidates[peak]),
                peak_window=int(starts[peak]),
                direction=_DIRECTIONS[scored.direction[peak]],
            )
        )
    return events
