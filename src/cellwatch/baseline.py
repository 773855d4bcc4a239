"""Hour-bucketed histogram baselines and robust median/MAD scoring.

Each (cell, metric, hour-of-day) key keeps a fixed-bounds histogram sketch.
Sketches are purely count-based, so models fitted on disjoint data
partitions merge into exactly the model a pooled fit would produce, as long
as every party uses the same bounds (pin them via DetectorConfig.bounds).

Median/MAD convention: both the exact (raw-value) statistics and the
histogram estimates use the *lower* median, i.e. the ceil(n/2)-th order
statistic. That makes the histogram estimate provably land in the same bin
as the exact value, giving a one-bin-width error bound; the interpolated
even-n median offers no such guarantee when the two central values straddle
empty bins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import EmptyTraining, IncompatibleSketch, SchemaMismatch, UnknownKey
from .ingest import Catalog, MetricKind, MetricSeries, Polarity
from .jsondoc import decode, encode

MAD_CONSISTENCY = 1.4826

# guard against zero MAD on constant baselines
SCALE_EPSILON = 1e-9

MODEL_SCHEMA_VERSION = 1

BaselineKey = tuple[str, str, int]  # (cell_id, metric_name, hour 0..23)


class Direction(str, Enum):
    UP = "UP"
    DOWN = "DOWN"
    NONE = "NONE"


def hour_bucket(window_start: int | np.ndarray) -> int | np.ndarray:
    """Hour-of-day bucket (UTC) of a window start; elementwise on int arrays."""
    return (window_start // 3600) % 24


def lower_median(sorted_values: list[float]) -> float:
    """The ceil(n/2)-th order statistic of an already-sorted list."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("median of empty data")
    return sorted_values[(n + 1) // 2 - 1]


def exact_median_mad(values: list[float]) -> tuple[float, float]:
    """Reference median/MAD from raw values (lower-median convention)."""
    s = sorted(values)
    med = lower_median(s)
    devs = sorted(abs(v - med) for v in s)
    return med, lower_median(devs)


def exact_robust_score(values: list[float], x: float) -> float:
    """Reference robust z-score of x against raw baseline values.

    The epsilon only floors a zero MAD, so the score is exactly invariant
    under increasing affine maps of (values, x) whenever MAD > 0.
    """
    med, mad = exact_median_mad(values)
    denom = max(MAD_CONSISTENCY * mad, SCALE_EPSILON)
    return abs(x - med) / denom


@dataclass
class HistogramSketch:
    """Fixed-bounds counting histogram; merging is elementwise addition."""

    lo: float
    hi: float
    counts: list[int]
    underflow: int = 0
    overflow: int = 0

    @classmethod
    def empty(cls, lo: float, hi: float, bin_count: int) -> "HistogramSketch":
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        return cls(lo=lo, hi=hi, counts=[0] * bin_count)

    @property
    def bin_count(self) -> int:
        return len(self.counts)

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bin_count

    def total_count(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def insert(self, value: float) -> None:
        if value < self.lo:
            self.underflow += 1
        elif value > self.hi:
            self.overflow += 1
        else:
            idx = int((value - self.lo) / self.bin_width)
            if idx >= self.bin_count:  # value == hi after float division
                idx = self.bin_count - 1
            self.counts[idx] += 1

    def estimate_median_mad(self) -> tuple[float, float]:
        """Median/MAD estimated from bin counts at bin-midpoint resolution.

        Underflow/overflow mass is pinned to lo/hi. With all mass inside the
        bounds both estimates are within one bin width of the exact
        lower-median statistics.
        """
        total = self.total_count()
        if total == 0:
            raise ValueError("cannot estimate statistics of an empty sketch")
        rank = (total + 1) // 2
        width = self.bin_width

        def walk(masses: list[tuple[float, int]]) -> float:
            cum = 0
            for value, count in masses:
                cum += count
                if cum >= rank:
                    return value
            return masses[-1][0]

        positions: list[tuple[float, int]] = []
        if self.underflow:
            positions.append((self.lo, self.underflow))
        for i, c in enumerate(self.counts):
            if c:
                positions.append((self.lo + (i + 0.5) * width, c))
        if self.overflow:
            positions.append((self.hi, self.overflow))
        med = walk(positions)

        deviations = sorted((abs(value - med), count) for value, count in positions)
        mad = walk(deviations)
        return med, mad


@dataclass(frozen=True)
class DetectorConfig:
    """Sketch geometry, alert threshold and fixed bounds.

    ``bounds`` maps metric names to (lo, hi); metrics listed there share the
    same sketch bounds in every fit, which is the precondition for exact
    partition merging. Unlisted metrics get per-key data-driven bounds.
    """

    bin_count: int = 128
    tau: float = 5.0
    min_samples: int = 20
    bounds: dict[str, tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if self.bin_count < 8:
            raise ValueError("bin_count must be >= 8")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    def with_catalog_bounds(self, catalog: Catalog) -> DetectorConfig:
        """This config with bounds pinned to the catalog's declared value ranges."""
        bounds = {name: info.value_range for name, info in catalog.items() if info.value_range}
        return replace(self, bounds=bounds or None)


@dataclass
class AnomalyScore:
    score: float
    direction: Direction
    degrading: bool
    sufficient_data: bool


@dataclass
class BaselineModel:
    """Per-key sketches plus per-metric classification.

    Immutable after fit; median/MAD estimates are cached per key.
    """

    config: DetectorConfig
    metric_meta: dict[str, tuple[MetricKind, Polarity]]
    sketches: dict[BaselineKey, HistogramSketch]
    _stats_cache: dict[BaselineKey, tuple[float, float]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def empty(cls, config: DetectorConfig) -> "BaselineModel":
        return cls(config=config, metric_meta={}, sketches={})

    def sample_count(self, key: BaselineKey) -> int:
        return self.sketches[key].total_count()

    def covers(self, cell_id: str, metric_name: str) -> bool:
        """Whether any hour bucket of (cell, metric) was trained."""
        return any(hour in self.sketches for hour in _hour_keys(cell_id, metric_name))

    def key_stats(self, key: BaselineKey) -> tuple[float, float]:
        cached = self._stats_cache.get(key)
        if cached is None:
            sketch = self.sketches.get(key)
            if sketch is None:
                raise UnknownKey(key)
            cached = sketch.estimate_median_mad()
            self._stats_cache[key] = cached
        return cached


def _hour_keys(cell_id: str, metric_name: str) -> list[BaselineKey]:
    return [(cell_id, metric_name, hour) for hour in range(24)]


def _data_driven_bounds(vmin: float, vmax: float, bin_count: int) -> tuple[float, float]:
    span = vmax - vmin
    if span > 0:
        return vmin - 0.05 * span, vmax + 0.05 * span
    # Degenerate (constant) key: pick bounds that put the value exactly on a
    # bin midpoint, so the estimated median reproduces the constant.
    step = max(0.1 * abs(vmin), 1.0) / bin_count
    lo = vmin - (bin_count // 2 + 0.5) * step
    return lo, lo + bin_count * step


def fit_baseline(train: list[MetricSeries], cfg: DetectorConfig) -> BaselineModel:
    """Fit per-(cell, metric, hour) sketches over cleaned training series.

    Per (cell, metric) all present values are binned at once: the bin index
    is ``int((value - lo) / bin_width)`` as in ``HistogramSketch.insert``,
    and ``np.bincount`` counts (hour, bin) pairs.
    """
    if not train:
        raise EmptyTraining("no training series given")

    metric_meta: dict[str, tuple[MetricKind, Polarity]] = {}
    per_pair: dict[tuple[str, str], list[MetricSeries]] = {}
    for series in train:
        meta = (series.kind, series.polarity)
        known = metric_meta.setdefault(series.metric_name, meta)
        if known != meta:
            raise ValueError(f"conflicting kind/polarity for metric {series.metric_name!r}")
        per_pair.setdefault((series.cell_id, series.metric_name), []).append(series)

    fixed = cfg.bounds or {}
    nb = cfg.bin_count
    sketches: dict[BaselineKey, HistogramSketch] = {}
    for (cell_id, metric), group in per_pair.items():
        values = np.concatenate([s.values for s in group])
        hours = hour_bucket(np.concatenate([s.window_starts for s in group]))
        present = ~np.isnan(values)
        values, hours = values[present], hours[present]
        seen = np.flatnonzero(np.bincount(hours, minlength=24)).tolist()
        if fixed.get(metric):
            bounds = dict.fromkeys(seen, fixed[metric])
        else:
            mins = np.full(24, np.inf)
            maxs = np.full(24, -np.inf)
            np.minimum.at(mins, hours, values)
            np.maximum.at(maxs, hours, values)
            bounds = {h: _data_driven_bounds(float(mins[h]), float(maxs[h]), nb) for h in seen}
        lo_h, hi_h = np.zeros(24), np.ones(24)
        for h, (lo, hi) in bounds.items():
            if not lo < hi:
                raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
            lo_h[h], hi_h[h] = lo, hi
        lo, hi = lo_h[hours], hi_h[hours]
        under, over = values < lo, values > hi
        inside = ~(under | over)
        width = ((hi_h - lo_h) / nb)[hours[inside]]
        bins = ((values[inside] - lo[inside]) / width).astype(np.int64)
        np.minimum(bins, nb - 1, out=bins)  # value == hi after float division
        counts = np.bincount(hours[inside] * nb + bins, minlength=24 * nb).reshape(24, nb)
        n_under = np.bincount(hours[under], minlength=24)
        n_over = np.bincount(hours[over], minlength=24)
        for h, (lo, hi) in bounds.items():
            sketches[(cell_id, metric, h)] = HistogramSketch(
                lo=lo,
                hi=hi,
                counts=counts[h].tolist(),
                underflow=int(n_under[h]),
                overflow=int(n_over[h]),
            )
    return BaselineModel(config=cfg, metric_meta=metric_meta, sketches=sketches)


def robust_score(model: BaselineModel, key: BaselineKey, value: float) -> AnomalyScore:
    """Score one value against its key's histogram baseline.

    score = |value - median| / (1.4826 * MAD + eps); the direction compares
    the value to the estimated median, and ``degrading`` is true only when
    that direction is the metric's declared worsening direction.
    """
    med, mad = model.key_stats(key)
    score = abs(value - med) / (MAD_CONSISTENCY * mad + SCALE_EPSILON)
    if value > med:
        direction = Direction.UP
    elif value < med:
        direction = Direction.DOWN
    else:
        direction = Direction.NONE
    meta = model.metric_meta.get(key[1])
    if meta is None:
        raise UnknownKey(key)
    polarity = meta[1]
    degrading = (direction == Direction.UP and polarity == Polarity.HIGHER_IS_WORSE) or (
        direction == Direction.DOWN and polarity == Polarity.LOWER_IS_WORSE
    )
    sufficient = model.sample_count(key) >= model.config.min_samples
    return AnomalyScore(
        score=score, direction=direction, degrading=degrading, sufficient_data=sufficient
    )


@dataclass
class ScoredWindow:
    window_start: int
    score: AnomalyScore
    flagged: bool


def score_series(
    model: BaselineModel, test: MetricSeries, tau: float | None = None
) -> list[ScoredWindow]:
    """Score every window of a test series; flag degrading outliers.

    flagged = score >= tau AND degrading AND sufficient data. MISSING points
    yield unflagged entries with score 0 and sufficient_data False. Raises
    UnknownKey when the (cell, metric) was never trained at all; a single
    hour bucket that ended up empty (e.g. cleaning removed all its values)
    is not a training gap worth aborting on and scores like a MISSING point.
    """
    threshold = model.config.tau if tau is None else tau
    if threshold <= 0:
        raise ValueError("tau must be > 0")
    starts, values = test.window_starts, test.values
    if not model.covers(test.cell_id, test.metric_name):
        raise UnknownKey((test.cell_id, test.metric_name, hour_bucket(int(starts[0])) if len(starts) else 0))

    # Per hour bucket: median, score denominator, sample sufficiency. A
    # bucket without a sketch (or a metric without metadata) scores like
    # MISSING, as robust_score's UnknownKey would.
    med_h = np.zeros(24)
    denom_h = np.ones(24)
    trained_h = np.zeros(24, dtype=bool)
    sufficient_h = np.zeros(24, dtype=bool)
    meta = model.metric_meta.get(test.metric_name)
    for h in range(24):
        key = (test.cell_id, test.metric_name, h)
        if meta is None or key not in model.sketches:
            continue
        med, mad = model.key_stats(key)
        med_h[h] = med
        denom_h[h] = MAD_CONSISTENCY * mad + SCALE_EPSILON
        trained_h[h] = True
        sufficient_h[h] = model.sample_count(key) >= model.config.min_samples

    hours = hour_bucket(starts)
    scored = ~np.isnan(values) & trained_h[hours]
    med = med_h[hours]
    score = np.where(scored, np.abs(values - med) / denom_h[hours], 0.0)
    up = scored & (values > med)
    down = scored & (values < med)
    worse = up if meta is not None and meta[1] == Polarity.HIGHER_IS_WORSE else down
    sufficient = scored & sufficient_h[hours]
    flagged = (score >= threshold) & worse & sufficient
    direction = np.where(up, 1, np.where(down, 2, 0))

    directions = (Direction.NONE, Direction.UP, Direction.DOWN)
    return [
        ScoredWindow(ws, AnomalyScore(sc, directions[d], dg, sf), fl)
        for ws, sc, d, dg, sf, fl in zip(
            starts.tolist(),
            score.tolist(),
            direction.tolist(),
            worse.tolist(),
            sufficient.tolist(),
            flagged.tolist(),
        )
    ]


def merge_baselines(models: list[BaselineModel]) -> BaselineModel:
    """Merge partition models by adding sketch counts; keys are unioned.

    All models must share the same config; a key present in several models
    must carry identical bounds and bin count (guaranteed when bounds come
    from a shared config). The empty model is the identity.
    """
    if not models:
        raise ValueError("nothing to merge")
    config = models[0].config
    for m in models[1:]:
        if m.config != config:
            raise IncompatibleSketch("models fitted with different configs cannot merge")

    metric_meta: dict[str, tuple[MetricKind, Polarity]] = {}
    sketches: dict[BaselineKey, HistogramSketch] = {}
    for m in models:
        for name, meta in m.metric_meta.items():
            known = metric_meta.setdefault(name, meta)
            if known != meta:
                raise IncompatibleSketch(f"conflicting metadata for metric {name!r}")
        for key, sketch in m.sketches.items():
            merged = sketches.get(key)
            if merged is None:
                sketches[key] = HistogramSketch(
                    lo=sketch.lo,
                    hi=sketch.hi,
                    counts=list(sketch.counts),
                    underflow=sketch.underflow,
                    overflow=sketch.overflow,
                )
                continue
            if (
                merged.lo != sketch.lo
                or merged.hi != sketch.hi
                or merged.bin_count != sketch.bin_count
            ):
                raise IncompatibleSketch(f"sketch geometry differs for key {key}")
            for i, c in enumerate(sketch.counts):
                merged.counts[i] += c
            merged.underflow += sketch.underflow
            merged.overflow += sketch.overflow
    return BaselineModel(config=config, metric_meta=metric_meta, sketches=sketches)


def model_to_json(model: BaselineModel) -> str:
    """Versioned JSON document; byte-stable for identical models.

    Compact separators: models are machine artifacts and their serialized
    size doubles as the shipping cost in deployment simulations.
    """
    keys = []
    for (cell, metric, hour), sketch in sorted(model.sketches.items()):
        keys.append(
            {
                "cell_id": cell,
                "metric": metric,
                "hour": hour,
                "sketch": {
                    "lo": sketch.lo,
                    "hi": sketch.hi,
                    "bin_count": sketch.bin_count,
                    "counts": [[i, c] for i, c in enumerate(sketch.counts) if c],
                    "underflow": sketch.underflow,
                    "overflow": sketch.overflow,
                },
            }
        )
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "config": encode(model.config),
        "metrics": {
            name: {"kind": kind.value, "polarity": polarity.value}
            for name, (kind, polarity) in sorted(model.metric_meta.items())
        },
        "keys": keys,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_model(model: BaselineModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> BaselineModel:
    """Read a model document; any structural defect raises SchemaMismatch."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported model schema {doc.get('schema_version')!r}")
    try:
        return _model_from_doc(doc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaMismatch(f"malformed model document: {type(exc).__name__}: {exc}") from None


def _model_from_doc(doc: dict) -> BaselineModel:
    cfg = decode(DetectorConfig, doc["config"], "config")
    metric_meta = {
        name: (MetricKind(entry["kind"]), Polarity(entry["polarity"]))
        for name, entry in doc["metrics"].items()
    }
    sketches: dict[BaselineKey, HistogramSketch] = {}
    for entry in doc["keys"]:
        raw = entry["sketch"]
        counts = [0] * raw["bin_count"]
        for i, c in raw["counts"]:
            if not 0 <= i < len(counts) or c < 0:
                raise ValueError(f"bad sparse count [{i}, {c}]")
            counts[i] = c
        if raw["underflow"] < 0 or raw["overflow"] < 0:
            raise ValueError("negative underflow/overflow count")
        sketches[(entry["cell_id"], entry["metric"], entry["hour"])] = HistogramSketch(
            lo=raw["lo"],
            hi=raw["hi"],
            counts=counts,
            underflow=raw["underflow"],
            overflow=raw["overflow"],
        )
    return BaselineModel(config=cfg, metric_meta=metric_meta, sketches=sketches)
