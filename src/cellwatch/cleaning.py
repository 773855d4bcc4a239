"""Training-data cleaning, the training span, and the windows after training.

Cleaning is meant for the training side only: the detection stream keeps its
extremes, since those may be exactly the anomalies being hunted. Fences are
computed once over the incoming series (single pass, no recomputation after
removal), so the operation is deterministic and cheap. Every tier that runs
inference scores the windows after the model's last trained one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .errors import TooFewPoints
from .ingest import MetricSeries


@dataclass(frozen=True)
class CleanConfig:
    """Tukey-fence multiplier and minimum surviving points.

    The default multiplier (6.0) targets gross telemetry corruption only;
    genuine anomalies are left in place for the robust detector to absorb.
    """

    iqr_multiplier: float = 6.0
    min_points: int = 24

    def __post_init__(self) -> None:
        if not 0 < self.iqr_multiplier < math.inf:
            raise ValueError("iqr_multiplier must be > 0 and finite")
        if self.min_points < 4:
            raise ValueError("min_points must be >= 4")


@dataclass(frozen=True)
class CleanDetail:
    """Points removed from one (cell, metric) series."""

    cell_id: str
    metric: str
    missing: int
    extremes: int


_detail_key = attrgetter("cell_id", "metric")


@dataclass
class CleanReport:
    """Removed points, overall and per (cell, metric) in key order: the clean report document."""

    missing_removed: int
    extremes_removed: int
    detail: list[CleanDetail]

    def add(self, other: "CleanReport") -> None:
        """Add ``other``'s counts; a (cell, metric) in both reports gets their sum."""
        self.missing_removed += other.missing_removed
        self.extremes_removed += other.extremes_removed
        for d in other.detail:
            i = bisect_left(self.detail, _detail_key(d), key=_detail_key)
            if i < len(self.detail) and _detail_key(self.detail[i]) == _detail_key(d):
                mine = self.detail.pop(i)
                d = replace(d, missing=mine.missing + d.missing, extremes=mine.extremes + d.extremes)
            self.detail.insert(i, d)


def clean(series: MetricSeries, cfg: CleanConfig) -> tuple[MetricSeries, CleanReport]:
    """Drop MISSING points and gross extremes from one series.

    Extremes lie outside [Q1 - k*IQR, Q3 + k*IQR], with quartiles taken over
    the non-missing values via linear interpolation. Surviving points keep
    their order. Raises TooFewPoints if fewer than cfg.min_points survive.
    """
    present = ~np.isnan(series.values)
    values = series.values[present]
    missing_removed = len(series.values) - len(values)

    keep = np.ones(len(values), dtype=bool)
    if len(values):
        q1, q3 = np.percentile(values, [25.0, 75.0])
        iqr = q3 - q1
        lo = q1 - cfg.iqr_multiplier * iqr
        hi = q3 + cfg.iqr_multiplier * iqr
        keep = (values >= lo) & (values <= hi)
    n_kept = int(np.count_nonzero(keep))
    extremes_removed = len(values) - n_kept

    if n_kept < cfg.min_points:
        raise TooFewPoints(
            f"{series.cell_id}/{series.metric_name}: {n_kept} points after cleaning, "
            f"need {cfg.min_points}"
        )

    cleaned = replace(series, window_starts=series.window_starts[present][keep], values=values[keep])
    report = CleanReport(
        missing_removed=missing_removed,
        extremes_removed=extremes_removed,
        detail=[CleanDetail(series.cell_id, series.metric_name, missing_removed, extremes_removed)],
    )
    return cleaned, report


def train_span(series: MetricSeries, train_fraction: float) -> MetricSeries:
    """The first ceil(n * fraction) points of a series: its training span.

    No shuffling: baselines are temporal. Raises TooFewPoints if the span or
    the points after it would be empty.
    """
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(series.values)
    cut = math.ceil(n * train_fraction)
    if cut == 0 or cut >= n:
        raise TooFewPoints(
            f"{series.cell_id}/{series.metric_name}: split {cut}/{n - cut} leaves an empty part"
        )
    return replace(series, window_starts=series.window_starts[:cut], values=series.values[:cut])


def after_training(series: list[MetricSeries], trained_through: int | None) -> list[MetricSeries]:
    """Each series' windows after ``trained_through``, without the series that have none.
    A model without keys has no such window (None): every series stays, for scoring to reject."""
    if trained_through is None:
        return series
    cut = [replace(s, window_starts=s.window_starts[after], values=s.values[after])
           for s in series for after in [s.window_starts > trained_through]]
    return [s for s in cut if len(s.values)]
