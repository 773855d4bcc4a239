"""Training-data cleaning, the training span, and the windows after training.

``clean`` is the one place that accepts or rejects training input: it cuts
each series to its training span, cleans the spans, and names the first
series, in input order, whose split or cleaning leaves too little. Cleaning
is meant for the training side only: the detection stream keeps its
extremes, since those may be exactly the anomalies being hunted. Fences are
computed once over each span (single pass, no recomputation after removal),
so the operation is deterministic and cheap. Every tier that runs inference
scores the windows after the model's last trained one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


@dataclass
class CleanReport:
    """Removed points, overall and per (cell, metric) in key order: the clean report document."""

    missing_removed: int
    extremes_removed: int
    detail: list[CleanDetail]


# A chunk of spans holds at most this many cells of its NaN-padded matrix (spans x longest
# span); a longer span is a chunk on its own. The matrix and its sorted copy are the
# chunk's largest temporaries.
CHUNK_VALUES = 2**16


def clean(
    series: list[MetricSeries], cfg: CleanConfig, train_fraction: float
) -> tuple[list[MetricSeries], CleanReport]:
    """Cut each series to its training span, then drop MISSING points and gross extremes.

    Extremes lie outside [Q1 - k*IQR, Q3 + k*IQR], with a span's quartiles
    taken over its non-missing values via linear interpolation. Surviving
    points keep their order. Raises TooFewPoints for the first series, in
    input order, whose split leaves the span or the points after it empty,
    or whose span keeps fewer than cfg.min_points points; a series that
    fails both is named for its split. The report sums the counts of a
    (cell, metric) that appears more than once.

    The spans go through in chunks: each chunk's values fill one NaN-padded
    matrix, one row per span, whose row-wise sort gives every span's
    quartiles at once (``_quartiles``), and one comparison with the fences
    gives the survivor mask.
    """
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    spans = [train_span(s, train_fraction) for s in series]
    lengths = np.array([len(s.values) for s in series], dtype=np.int64)
    cleaned: list[MetricSeries] = []
    removed: dict[tuple[str, str], tuple[int, int]] = {}
    for run in _chunks(spans):
        chunk, n = spans[run], lengths[run]
        matrix = np.full((len(chunk), max(1, *(len(s.values) for s in chunk))), np.nan)
        for row, s in zip(matrix, chunk):
            row[: len(s.values)] = s.values
        cut = np.array([len(s.values) for s in chunk], dtype=np.int64)
        ordered = np.sort(matrix, axis=1)  # NaN sorts last
        present = np.count_nonzero(~np.isnan(ordered), axis=1)
        q1, q3 = _quartiles(ordered, present)
        del ordered
        iqr = q3 - q1
        lo, hi = q1 - cfg.iqr_multiplier * iqr, q3 + cfg.iqr_multiplier * iqr
        keep = (matrix >= lo[:, None]) & (matrix <= hi[:, None])  # False for NaN
        kept = np.count_nonzero(keep, axis=1)
        split = (cut == 0) | (cut == n)
        short = kept < cfg.min_points
        if (split | short).any():
            i = int(np.argmax(split | short))
            key = f"{chunk[i].cell_id}/{chunk[i].metric_name}"
            if split[i]:
                raise TooFewPoints(f"{key}: split {cut[i]}/{n[i] - cut[i]} leaves an empty part")
            raise TooFewPoints(f"{key}: {kept[i]} points after cleaning, need {cfg.min_points}")
        for s, row, n_present, n_kept in zip(chunk, keep, present.tolist(), kept.tolist()):
            survivors = row[: len(s.values)]
            cleaned.append(replace(s, window_starts=s.window_starts[survivors], values=s.values[survivors]))
            key = (s.cell_id, s.metric_name)
            missing, extremes = removed.get(key, (0, 0))
            removed[key] = (missing + len(s.values) - n_present, extremes + n_present - n_kept)
    detail = [CleanDetail(*key, *counts) for key, counts in sorted(removed.items())]
    return cleaned, CleanReport(
        missing_removed=sum(d.missing for d in detail),
        extremes_removed=sum(d.extremes for d in detail),
        detail=detail,
    )


def _chunks(spans: list[MetricSeries]):
    """Slices of consecutive spans whose padded matrix has at most CHUNK_VALUES cells, or of one span."""
    start, width = 0, 0
    for i, s in enumerate(spans):
        if i > start and (i - start + 1) * max(width, len(s.values)) > CHUNK_VALUES:
            yield slice(start, i)
            start, width = i, 0
        width = max(width, len(s.values))
    if start < len(spans):
        yield slice(start, len(spans))


def _quartiles(ordered: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q1 and Q3 of the first n[i] values of each ascending row, as np.percentile gives them.

    numpy's linear method (Hyndman & Fan's type 7): the virtual index is
    (n - 1) * q, which for q = 1/4 and 3/4 is exactly numpy 1.x's
    n*q + (1 - q) - 1, and the value comes from ``_lerp``: a + (b - a) * t,
    or b - (b - a) * (1 - t) where t >= 0.5. At or past the last value
    numpy reads it twice with weight index + 1. A row with n = 0 gives NaN.
    """
    rows = np.arange(len(ordered))
    last = np.maximum(n - 1, 0)
    quartiles = []
    for q in (0.25, 0.75):
        index = last * q
        below = np.floor(index)
        at = below.astype(np.intp)
        t = np.where(index >= last, index + 1, index - below)
        a, b = ordered[rows, at], ordered[rows, np.minimum(at + 1, last)]
        diff = b - a
        value = a + diff * t
        upper = t >= 0.5
        value[upper] = (b - diff * (1 - t))[upper]
        quartiles.append(value)
    return quartiles[0], quartiles[1]


def train_span(series: MetricSeries, train_fraction: float) -> MetricSeries:
    """The first ceil(n * fraction) points of a series: its training span.

    No shuffling: baselines are temporal. The cut alone: ``clean`` checks
    the fraction and rejects a split that leaves an empty part.
    """
    cut = math.ceil(len(series.values) * train_fraction)
    return replace(series, window_starts=series.window_starts[:cut], values=series.values[:cut])


def after_training(series: list[MetricSeries], trained_through: int | None) -> list[MetricSeries]:
    """Each series' windows after ``trained_through``, without the series that have none.
    A model without keys has no such window (None): every series stays, for scoring to reject."""
    if trained_through is None:
        return series
    cut = [replace(s, window_starts=s.window_starts[after], values=s.values[after])
           for s in series for after in [s.window_starts > trained_through]]
    return [s for s in cut if len(s.values)]
