"""Training-data cleaning and chronological train/test splitting.

Cleaning is meant for the training side only: the detection stream keeps its
extremes, since those may be exactly the anomalies being hunted. Fences are
computed once over the incoming series (single pass, no recomputation after
removal), so the operation is deterministic and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if self.iqr_multiplier <= 0:
            raise ValueError("iqr_multiplier must be > 0")
        if self.min_points < 4:
            raise ValueError("min_points must be >= 4")


@dataclass
class CleanReport:
    """Tally of removed points, overall and per (cell, metric)."""

    missing_removed: int = 0
    extremes_removed: int = 0
    detail: dict[tuple[str, str], dict[str, int]] = field(default_factory=dict)

    def add(self, other: "CleanReport") -> None:
        self.missing_removed += other.missing_removed
        self.extremes_removed += other.extremes_removed
        for key, counts in other.detail.items():
            mine = self.detail.setdefault(key, {"missing": 0, "extremes": 0})
            mine["missing"] += counts["missing"]
            mine["extremes"] += counts["extremes"]

    def to_json_dict(self) -> dict:
        return {
            "missing_removed": self.missing_removed,
            "extremes_removed": self.extremes_removed,
            "detail": [
                {"cell_id": cell, "metric": metric, **counts}
                for (cell, metric), counts in sorted(self.detail.items())
            ],
        }


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

    cleaned = MetricSeries(
        cell_id=series.cell_id,
        metric_name=series.metric_name,
        kind=series.kind,
        polarity=series.polarity,
        window_len=series.window_len,
        window_starts=series.window_starts[present][keep],
        values=values[keep],
    )
    report = CleanReport(
        missing_removed=missing_removed,
        extremes_removed=extremes_removed,
        detail={
            (series.cell_id, series.metric_name): {
                "missing": missing_removed,
                "extremes": extremes_removed,
            }
        },
    )
    return cleaned, report


def chrono_split(series: MetricSeries, train_fraction: float) -> tuple[MetricSeries, MetricSeries]:
    """Split a series chronologically: first ceil(n * fraction) points train.

    No shuffling: baselines are temporal. Raises TooFewPoints if either part
    would be empty.
    """
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(series.values)
    cut = math.ceil(n * train_fraction)
    if cut == 0 or cut >= n:
        raise TooFewPoints(
            f"{series.cell_id}/{series.metric_name}: split {cut}/{n - cut} leaves an empty part"
        )

    def _part(part: slice) -> MetricSeries:
        return MetricSeries(
            cell_id=series.cell_id,
            metric_name=series.metric_name,
            kind=series.kind,
            polarity=series.polarity,
            window_len=series.window_len,
            window_starts=series.window_starts[part],
            values=series.values[part],
        )

    return _part(slice(None, cut)), _part(slice(cut, None))
