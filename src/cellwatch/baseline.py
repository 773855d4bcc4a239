"""Hour-bucketed histogram baselines and robust median/MAD scoring.

Each (cell, metric, hour-of-day) key keeps a fixed-bounds histogram sketch,
one row of a SketchTable. Sketches are purely count-based, so models fitted
on disjoint data partitions merge into exactly the model a pooled fit would
produce, as long as every party uses the same bounds (pin them via
DetectorConfig.bounds).

Median/MAD convention: both the exact (raw-value) statistics and the
histogram estimates use the *lower* median, i.e. the ceil(n/2)-th order
statistic. That makes the histogram estimate provably land in the same bin
as the exact value, giving a one-bin-width error bound; the interpolated
even-n median offers no such guarantee when the two central values straddle
empty bins.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, fields, replace
from enum import Enum
from json.decoder import WHITESPACE, JSONObject
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import IncompatibleSketch, SchemaMismatch, UnknownKey
from .ingest import Catalog, MetricKind, MetricSeries, Polarity, _horner, _tails
from .jsondoc import decode, encode, read

MAD_CONSISTENCY = 1.4826

# guard against zero MAD on constant baselines
SCALE_EPSILON = 1e-9

MODEL_SCHEMA_VERSION = 3

# a fit and a loaded model hold a keys x bin_count matrix
MAX_BIN_COUNT = 4096

BaselineKey = tuple[str, str, int]  # (cell_id, metric_name, hour 0..23)


class Direction(str, Enum):
    UP = "UP"
    DOWN = "DOWN"
    NONE = "NONE"


_DIRECTIONS = (Direction.NONE, Direction.UP, Direction.DOWN)  # by _score_values' direction index


def hour_bucket(window_start: int | np.ndarray) -> int | np.ndarray:
    """Hour-of-day bucket (UTC) of a window start; elementwise on int arrays."""
    return (window_start // 3600) % 24


@dataclass(eq=False)
class SketchTable:
    """Fixed-bounds counting histograms, one row per key in sorted key order.

    Row r counts the values of ``keys[r]`` inside ``[lo[r], hi[r]]`` in
    ``counts[r]`` (equal-width bins) and those below or above the bounds in
    ``underflow[r]`` and ``overflow[r]``. Merging adds the rows of equal keys.
    """

    keys: list[BaselineKey]
    lo: np.ndarray  # float64, one per key
    hi: np.ndarray  # float64, one per key
    counts: np.ndarray  # int64, keys x bin_count
    underflow: np.ndarray  # int64, one per key
    overflow: np.ndarray  # int64, one per key

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SketchTable):
            return NotImplemented
        return self.keys == other.keys and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("lo", "hi", "counts", "underflow", "overflow")
        )

    def stats(self, rows: slice | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Total mass, median and MAD of each row (a slice or an index array) at bin-midpoint resolution.

        Underflow/overflow mass is pinned to lo/hi. Each estimate is the
        position of the ceil(n/2)-th unit of mass, in value order for the
        median and in deviation order for the MAD, so with all mass inside
        the bounds both are within one bin width of the exact lower-median
        statistics. A zero-count column never holds that unit, and the order
        of equal deviations does not change which deviation holds it, so the
        result is the same as walking each row's nonzero positions.
        """
        lo, hi = self.lo[rows], self.hi[rows]
        nb = self.counts.shape[1]
        values = np.empty((len(lo), nb + 2), dtype=lo.dtype)  # lo, the bin midpoints, hi
        values[:, 0], values[:, -1] = lo, hi
        values[:, 1:-1] = lo[:, None] + (np.arange(nb) + 0.5) * ((hi - lo) / nb)[:, None]
        mass = np.empty(values.shape, dtype=np.result_type(self.underflow, self.counts, self.overflow))
        mass[:, 0], mass[:, 1:-1], mass[:, -1] = self.underflow[rows], self.counts[rows], self.overflow[rows]
        cumulative = np.cumsum(mass, axis=1)
        total = cumulative[:, -1].copy()
        rank = ((total + 1) // 2)[:, None]
        each = np.arange(len(values))
        median = values[each, np.argmax(cumulative >= rank, axis=1)]
        deviations = np.abs(np.subtract(values, median[:, None], out=values), out=values)
        order = np.argsort(deviations, axis=1, kind="stable")
        # mass in deviation order, gathered through one flat index, summed into the same buffer
        np.cumsum(mass.ravel()[order + (each * (nb + 2))[:, None]], axis=1, out=cumulative)
        mad = deviations[each, order[each, np.argmax(cumulative >= rank, axis=1)]]
        return total, median, mad


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
        if not 8 <= self.bin_count <= MAX_BIN_COUNT:
            raise ValueError(f"bin_count must be in [8, {MAX_BIN_COUNT}], got {self.bin_count}")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be > 0 and finite")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")

    def with_catalog_bounds(self, catalog: Catalog) -> DetectorConfig:
        """This config with bounds pinned to the catalog's declared value ranges."""
        bounds = {name: info.value_range for name, info in catalog.items() if info.value_range}
        return replace(self, bounds=bounds or None)


@dataclass
class BaselineModel:
    """Per-key sketches plus per-metric classification; immutable after fit."""

    config: DetectorConfig
    metric_meta: dict[str, tuple[MetricKind, Polarity]]
    sketches: SketchTable
    trained_through: int | None = None  # the latest window start of a value in the sketches

    @classmethod
    def empty(cls, config: DetectorConfig) -> "BaselineModel":
        counts = np.zeros((0, config.bin_count), dtype=np.int64)
        table = SketchTable([], np.zeros(0), np.zeros(0), counts, counts[:, 0], counts[:, 0])
        return cls(config=config, metric_meta={}, sketches=table)


def _data_driven_bounds(
    vmin: np.ndarray, vmax: np.ndarray, bin_count: int
) -> tuple[np.ndarray, np.ndarray]:
    span = vmax - vmin
    # Degenerate (constant) key: pick bounds that put the value on a bin
    # midpoint, so the estimated median reproduces the constant.
    step = np.maximum(0.1 * np.abs(vmin), 1.0) / bin_count
    flat_lo = vmin - (bin_count // 2 + 0.5) * step
    spread = span > 0
    return (np.where(spread, vmin - 0.05 * span, flat_lo),
            np.where(spread, vmax + 0.05 * span, flat_lo + bin_count * step))


# fit_baseline bins whole (cell, metric) pairs in chunks of at most this many values; a
# pair with more is a chunk on its own. A chunk's per-value temporaries are its largest.
CHUNK_VALUES = 2**16


def fit_baseline(train: list[MetricSeries], cfg: DetectorConfig) -> BaselineModel:
    """Fit per-(cell, metric, hour) sketches over cleaned training series.

    The (cell, metric) pairs go through in key order, many per chunk. Each
    present value gets its key row from one (pair, hour) code, its bin index
    ``int((value - lo) / bin_width)``, clipped to the last bin for a value
    equal to ``hi``, and one ``np.bincount`` per chunk counts the (row, bin)
    pairs. The keys seen, in key order, are the model's table. No series
    give the empty model, the identity of ``merge_baselines``.
    """
    if not train:
        return BaselineModel.empty(cfg)

    metric_meta: dict[str, tuple[MetricKind, Polarity]] = {}
    per_pair: dict[tuple[str, str], list[MetricSeries]] = {}
    for series in train:
        meta = (series.kind, series.polarity)
        known = metric_meta.setdefault(series.metric_name, meta)
        if known != meta:
            raise ValueError(f"conflicting kind/polarity for metric {series.metric_name!r}")
        per_pair.setdefault((series.cell_id, series.metric_name), []).append(series)

    nb = cfg.bin_count
    keys: list[BaselineKey] = []
    columns: list[tuple[np.ndarray, ...]] = []
    lasts: list[int] = []
    # Count rows go straight into one matrix with room for every hour of every
    # pair; joining per-chunk pieces would fragment a long-lived process's heap.
    counts = np.zeros((24 * len(per_pair), nb), dtype=np.int64)
    for pairs in _pair_chunks(per_pair):
        groups = [per_pair[pair] for pair in pairs]
        values = np.concatenate([s.values for group in groups for s in group])
        present = ~np.isnan(values)
        values = values[present]
        starts = np.concatenate([s.window_starts for group in groups for s in group])[present]
        sizes = [sum(len(s.values) for s in group) for group in groups]
        code = np.repeat(np.arange(0, 24 * len(pairs), 24), sizes)[present] + hour_bucket(starts)
        seen = np.bincount(code, minlength=24 * len(pairs)) > 0
        row = (np.cumsum(seen) - 1)[code]
        codes = np.flatnonzero(seen)
        n = len(codes)
        if n:
            lasts.append(int(starts.max()))
        lo, hi = _bounds(pairs, codes // 24, row, values, cfg)
        bad = ~(lo < hi)
        if bad.any():
            raise ValueError(f"need lo < hi in every sketch of {pairs[codes[np.argmax(bad)] // 24]}")
        under, over = values < lo[row], values > hi[row]
        inside = ~(under | over)
        width = ((hi - lo) / nb)[row[inside]]
        bins = ((values[inside] - lo[row[inside]]) / width).astype(np.int64)
        np.minimum(bins, nb - 1, out=bins)  # value == hi after float division
        binned = np.bincount(row[inside] * nb + bins, minlength=n * nb)
        counts[len(keys) : len(keys) + n] = binned.reshape(n, nb)
        keys += [(*pairs[c // 24], c % 24) for c in codes.tolist()]
        columns.append((lo, hi, *(np.bincount(row[side], minlength=n) for side in (under, over))))
    counts.resize((len(keys), nb), refcheck=False)  # in place; nothing else refers to it
    lo, hi, underflow, overflow = (np.concatenate(column) for column in zip(*columns))
    table = SketchTable(keys, lo, hi, counts, underflow, overflow)
    return BaselineModel(cfg, metric_meta, table, trained_through=max(lasts, default=None))


def _pair_chunks(per_pair: dict[tuple[str, str], list[MetricSeries]]):
    """The pairs in key order, as consecutive runs of at most CHUNK_VALUES values, or one pair."""
    chunk: list[tuple[str, str]] = []
    size = 0
    for pair in sorted(per_pair):
        n = sum(len(s.values) for s in per_pair[pair])
        if chunk and size + n > CHUNK_VALUES:
            yield chunk
            chunk, size = [], 0
        chunk.append(pair)
        size += n
    if chunk:
        yield chunk


def _bounds(
    pairs: list[tuple[str, str]], pair: np.ndarray, row: np.ndarray, values: np.ndarray, cfg: DetectorConfig
) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi of each key row: its metric's fixed bounds, else data-driven from the row's values."""
    fixed = [(cfg.bounds or {}).get(metric) for _, metric in pairs]
    pinned = np.array([bool(bounds) for bounds in fixed])[pair]
    lo, hi = (np.array([float(bounds[i]) if bounds else 0.0 for bounds in fixed])[pair] for i in (0, 1))
    if not pinned.all():
        free = ~pinned
        at = free[row]
        mins, maxs = np.full(len(pair), np.inf), np.full(len(pair), -np.inf)
        np.minimum.at(mins, row[at], values[at])
        np.maximum.at(maxs, row[at], values[at])
        lo[free], hi[free] = _data_driven_bounds(mins[free], maxs[free], cfg.bin_count)
    return lo, hi


def _score_values(
    model: BaselineModel, cell_id: str, metric_name: str, starts: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Score, direction index (0 NONE, 1 UP, 2 DOWN), degrading and sufficiency per value.

    Each value is scored against the sketch of its window start's hour:
    score = |value - median| / (1.4826 * MAD + eps), the direction compares
    the value to the estimated median, and degrading means that direction
    is the metric's declared worsening direction. A NaN value, or one whose
    hour has no sketch (or whose metric has no metadata), scores 0 with no
    direction and insufficient data. Raises UnknownKey when the (cell,
    metric) has no sketch at all.
    """
    keys = model.sketches.keys
    first, stop = (bisect_left(keys, (cell_id, metric_name, h)) for h in (0, 24))
    if first == stop:
        raise UnknownKey((cell_id, metric_name, hour_bucket(int(starts[0])) if len(starts) else 0))
    meta = model.metric_meta.get(metric_name)
    row_h = np.full(24, -1)  # -1: no sketch for the hour
    if meta is not None:
        row_h[[hour for _, _, hour in keys[first:stop]]] = np.arange(first, stop)
    # statistics only for the hours with a sketch that the window starts hit, read through a
    # slice (no gather) when that is every row of the pair
    hours = hour_bucket(starts)
    hit = np.zeros(24, dtype=bool)
    hit[hours] = True
    hit &= row_h >= 0
    rows = row_h[hit]
    if not len(rows):
        nothing = np.zeros(len(values), dtype=bool)
        return np.zeros(len(values)), np.zeros(len(values), dtype=np.int64), nothing, nothing
    total, med, mad = model.sketches.stats(slice(first, stop) if len(rows) == stop - first else rows)
    entry_h = np.full(24, -1)  # -1: no statistics for the hour; masked out below
    entry_h[hit] = np.arange(len(rows))
    entry = entry_h[hours]
    scored = ~np.isnan(values) & (entry >= 0)
    med = med[entry]
    score = np.where(scored, np.abs(values - med) / (MAD_CONSISTENCY * mad[entry] + SCALE_EPSILON), 0.0)
    up = scored & (values > med)
    down = scored & (values < med)
    worse = up if meta is not None and meta[1] == Polarity.HIGHER_IS_WORSE else down
    return score, up + 2 * down, worse, scored & (total[entry] >= model.config.min_samples)


def score_series(
    model: BaselineModel, test: MetricSeries, tau: float | None = None
) -> np.recarray:
    """Score every window of a test series; flag degrading outliers.

    One record per window, in window order, with the fields window_start,
    score, direction (the _DIRECTIONS index), degrading, sufficient_data and
    flagged; ``scored.flagged`` reads a whole column. flagged = score >= tau
    AND degrading AND sufficient data. MISSING points yield unflagged records
    with score 0 and sufficient_data False. Raises UnknownKey when the (cell,
    metric) was never trained at all; a single hour bucket that ended up
    empty (e.g. cleaning removed all its values) is not a training gap worth
    aborting on and scores like a MISSING point.
    """
    threshold = model.config.tau if tau is None else tau
    if not 0 < threshold < math.inf:
        raise ValueError("tau must be > 0 and finite")
    score, direction, worse, sufficient = _score_values(
        model, test.cell_id, test.metric_name, test.window_starts, test.values
    )
    flagged = (score >= threshold) & worse & sufficient
    return np.rec.fromarrays(
        [test.window_starts, score, direction, worse, sufficient, flagged],
        names="window_start,score,direction,degrading,sufficient_data,flagged",
    )


def merge_baselines(models: list[BaselineModel]) -> BaselineModel:
    """Merge partition models by adding sketch counts; keys are unioned.

    All models must share the same config; a key present in several models
    must carry identical bounds and bin count (guaranteed when bounds come
    from a shared config). The merge is trained through the latest window
    any model is trained through. The empty model is the identity.
    """
    if not models:
        raise ValueError("nothing to merge")
    config = models[0].config
    for m in models[1:]:
        if m.config != config:
            raise IncompatibleSketch("models fitted with different configs cannot merge")

    metric_meta: dict[str, tuple[MetricKind, Polarity]] = {}
    for m in models:
        for name, meta in m.metric_meta.items():
            known = metric_meta.setdefault(name, meta)
            if known != meta:
                raise IncompatibleSketch(f"conflicting metadata for metric {name!r}")
    tables = [m.sketches for m in models]
    keys = [key for t in tables for key in t.keys]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    lo, hi, counts, underflow, overflow = (
        np.concatenate([getattr(t, name) for t in tables])[order]
        for name in ("lo", "hi", "counts", "underflow", "overflow")
    )
    first = np.array([i == 0 or keys[i] != keys[i - 1] for i in range(len(keys))], dtype=bool)
    starts = np.flatnonzero(first)
    differs = ~first[1:] & ((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]))  # vs the key's previous row
    if differs.any():
        raise IncompatibleSketch(f"sketch geometry differs for key {keys[np.argmax(differs) + 1]}")
    sums = (np.add.reduceat(column, starts) for column in (counts, underflow, overflow))
    table = SketchTable([keys[i] for i in starts], lo[starts], hi[starts], *sums)
    through = max((m.trained_through for m in models if m.trained_through is not None), default=None)
    return BaselineModel(config=config, metric_meta=metric_meta, sketches=table, trained_through=through)


# The model document's integer columns, as (section, key): written and read as whole int64 arrays.
_INT_COLUMNS = frozenset(
    [("keys", name) for name in ("cell", "metric", "hour")]
    + [("sketches", name) for name in ("underflow", "overflow", "nbins", "bins", "counts")]
)


def model_to_json(model: BaselineModel) -> str:
    """Versioned columnar JSON document; byte-stable for identical models.

    ``trained_through`` is the last trained window start, null without
    keys. ``keys`` names each table row by its indices into the sorted
    ``cell_names`` and ``metric_names`` plus its hour. ``sketches`` holds one
    value per row in ``lo``, ``hi``, ``underflow``, ``overflow`` and
    ``nbins``, and the rows' nonzero bins back to back in ``bins`` and
    ``counts``: row r's ``nbins[r]`` (bin, count) pairs follow row r-1's.
    Compact separators: models are machine artifacts and their serialized
    size doubles as the shipping cost in deployment simulations.

    The text is ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
    of the document with every column as a list, byte for byte. The eight
    integer columns are written from their int64 arrays by ``_digits``, one
    byte matrix per column, with no Python int per value; every other member
    goes through ``json.dumps``, so ``lo`` and ``hi`` are floats' ``repr``.
    """
    t = model.sketches
    cells, metrics = (sorted({key[i] for key in t.keys}) for i in (0, 1))
    cell_index, metric_index = ({name: i for i, name in enumerate(names)} for names in (cells, metrics))
    nonzero = np.flatnonzero(t.counts)  # row by row, as the (bin, count) pairs are listed
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "trained_through": model.trained_through,
        "config": encode(model.config),
        "metrics": {
            name: {"kind": kind.value, "polarity": polarity.value}
            for name, (kind, polarity) in sorted(model.metric_meta.items())
        },
        "keys": {
            "cell_names": cells,
            "metric_names": metrics,
            "cell": np.array([cell_index[cell] for cell, _, _ in t.keys], dtype=np.int64),
            "metric": np.array([metric_index[metric] for _, metric, _ in t.keys], dtype=np.int64),
            "hour": np.array([hour for _, _, hour in t.keys], dtype=np.int64),
        },
        "sketches": {
            "bin_count": t.counts.shape[1],
            "lo": t.lo.tolist(),
            "hi": t.hi.tolist(),
            "underflow": t.underflow,
            "overflow": t.overflow,
            "nbins": np.count_nonzero(t.counts, axis=1),
            "bins": nonzero % t.counts.shape[1],
            "counts": t.counts.reshape(-1)[nonzero],
        },
    }
    return _compact(doc) + "\n"


def _compact(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with each integer array written by _digits."""
    if isinstance(value, np.ndarray):
        return f"[{_digits(value)}]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(key)}:{_compact(value[key])}" for key in sorted(value)) + "}"
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digits(column: np.ndarray) -> str:
    """``",".join(map(str, column.tolist()))`` of an integer array, from one byte matrix.

    Row i holds value i's sign, the ``width`` decimal digits of its magnitude
    and a comma, with a NUL byte for a positive sign, for each zero before the
    first nonzero digit (the last digit is always written) and for the last
    row's comma. The matrix's bytes without the NULs are the text.
    """
    if not len(column):
        return ""
    column = column.astype(np.int64, copy=False)
    if -(2**32) < column.min() and column.max() < 2**32:  # uint32 buffers, half the memory
        rest = np.absolute(column, out=np.empty(len(column), dtype=np.uint32), casting="unsafe")
    else:
        rest = np.abs(column).view(np.uint64)  # -2**63 wraps to itself, which reads as 2**63
    width = len(str(int(rest.max())))
    text = np.zeros((len(column), width + 2), dtype=np.uint8)
    text[column < 0, 0] = ord("-")
    text[:-1, -1] = ord(",")
    # Two buffers serve every digit: a new temporary per operation grew a long fogsim run's peak RSS by 4 MB.
    ten, zero = rest.dtype.type(10), rest.dtype.type(ord("0"))
    quotient, digit = np.empty_like(rest), np.empty_like(rest)
    for j in range(width, 0, -1):
        np.floor_divide(rest, ten, out=quotient)  # by a constant, cheaper than divmod
        np.subtract(rest, np.multiply(quotient, ten, out=digit), out=digit)
        digit += zero
        if j < width:
            digit *= rest > 0  # a zero before the first nonzero digit is a NUL
        text[:, j] = digit
        rest, quotient = quotient, rest
    return text.tobytes().translate(None, b"\0").decode("ascii")


def save_model(model: BaselineModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> BaselineModel:
    """Read a model document; any structural defect raises SchemaMismatch.

    The text is parsed per array by ``_loads_model``: an integer column
    written as plain digits and commas is decoded by numpy straight to int64,
    with no Python int per value, and every other array and value goes to
    the stdlib decoder. So a document in any layout loads as it does under
    ``json.loads``, and one that is not JSON raises the same MalformedJson.
    """
    doc = read(path, _loads_model)
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise SchemaMismatch(
            f"unsupported model schema {doc.get('schema_version')!r}: this version reads schema"
            f" {MODEL_SCHEMA_VERSION} only; retrain the model with `cellwatch train`"
        )
    try:
        return _model_from_doc(doc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SchemaMismatch(f"malformed model document: {type(exc).__name__}: {exc}") from None


@dataclass(frozen=True)
class _MetricDoc:
    kind: MetricKind
    polarity: Polarity


@dataclass(frozen=True)
class _ModelHeader:
    """The model document's members besides its ``keys`` and ``sketches`` columns."""

    schema_version: int
    config: DetectorConfig
    metrics: dict[str, _MetricDoc]
    trained_through: int | None


_SCAN = json.JSONDecoder().scan_once  # reads one JSON value at an index, as json.loads does
_MAX_DIGITS = 18  # an integer of at most 18 digits is below 10**18 < 2**63


def _loads_model(text: str) -> Any:
    """``json.loads(text)``, but an integer column of plain digits arrives as an int64 array.

    The dispatch is per array, so any layout parses. The top-level object and
    its members' objects are read by the stdlib's ``JSONObject``, and every
    other value, at the index where it starts, by the stdlib's scanner, which
    recurses no deeper than in ``json.loads``; errors are the stdlib's, at the
    same positions. Only an array in a member's object that holds nothing but
    digits and commas goes to ``_int_column``, and it goes back to a list
    unless it is one of the integer columns. An array written with spaces or
    newlines takes the stdlib path.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        doc, end = _scan_document(text, WHITESPACE.match(text, 0).end())
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", text, err.value) from None
    end = WHITESPACE.match(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    for section, members in doc.items() if isinstance(doc, dict) else ():
        for key, value in members.items() if isinstance(members, dict) else ():
            if isinstance(value, np.ndarray) and (section, key) not in _INT_COLUMNS:
                members[key] = value.tolist()
    return doc


def _scan_column(text: str, idx: int) -> tuple[Any, int]:
    """The value at ``idx``: by ``_int_column`` when it is an array of plain integers, else by _SCAN."""
    if text.startswith("[", idx) and "0" <= text[idx + 1 : idx + 2] <= "9":
        end = text.find("]", idx)
        column = None if end == -1 else _int_column(text[idx + 1 : end])
        if column is not None:
            return column, end + 1
    return _SCAN(text, idx)


def _object_scanner(member: Callable[[str, int], tuple[Any, int]]) -> Callable[[str, int], tuple[Any, int]]:
    """A scanner that reads an object's values with ``member``, and any other value with _SCAN."""

    def scan(text: str, idx: int) -> tuple[Any, int]:
        if text.startswith("{", idx):
            return JSONObject((text, idx + 1), True, member, None, None)
        return _SCAN(text, idx)

    return scan


_scan_document = _object_scanner(_object_scanner(_scan_column))


def _int_column(text: str) -> np.ndarray | None:
    """The items of ``text`` as int64 when it is plain integers joined by ',', else None.

    An item is 0 or 1-18 digits without a leading zero, which JSON reads as
    the same int. The digits come from ``ingest._tails``, where the bytes
    before an item read as '0', and ``ingest._horner`` makes them numbers, as
    ``ingest._window_starts`` reads them.
    """
    if not text.isascii():
        return None
    buf = np.frombuffer(bytes(_MAX_DIGITS) + text.encode("ascii"), dtype=np.uint8)
    body = buf[_MAX_DIGITS:]
    comma = body == ord(",")
    if not ((body - np.uint8(ord("0")) <= 9) | comma).all():
        return None
    ends = np.append(np.flatnonzero(comma), len(body)) + _MAX_DIGITS
    lengths = np.diff(ends, prepend=_MAX_DIGITS - 1) - 1
    if not ((lengths >= 1) & (lengths <= _MAX_DIGITS)).all():
        return None
    if ((buf[ends - lengths] == ord("0")) & (lengths > 1)).any():
        return None
    digits = _tails(buf, ends, lengths, _MAX_DIGITS, ord("0"))
    digits -= np.uint8(ord("0"))
    return _horner(digits).view(np.int64)


def _model_from_doc(doc: dict) -> BaselineModel:
    header = decode(_ModelHeader, {f.name: doc[f.name] for f in fields(_ModelHeader) if f.name in doc})
    cfg = header.config
    metric_meta = {name: (entry.kind, entry.polarity) for name, entry in header.metrics.items()}
    columns, sketches, nb = doc["keys"], doc["sketches"], cfg.bin_count
    if not (type(sketches["bin_count"]) is int and sketches["bin_count"] == nb):
        raise ValueError(f"sketches.bin_count differs from the config's {nb}")
    cells, metrics = (_names(columns[name], name) for name in ("cell_names", "metric_names"))
    cell, metric, hour = (_array(columns[name], name, np.int64) for name in ("cell", "metric", "hour"))
    lo, hi = (_array(sketches[name], name, np.float64) for name in ("lo", "hi"))
    underflow, overflow, nbins, bins, counts = (
        _array(sketches[name], name, np.int64)
        for name in ("underflow", "overflow", "nbins", "bins", "counts")
    )
    n = len(hour)
    if any(len(column) != n for column in (cell, metric, lo, hi, underflow, overflow, nbins)):
        raise ValueError(f"every per-key column needs {n} values, as many as hour has")
    if (cell >= len(cells)).any() or (metric >= len(metrics)).any() or (hour >= 24).any():
        raise ValueError("keys: need name indices within cell_names and metric_names, hours 0..23")
    keys = [(cells[c], metrics[m], h) for c, m, h in zip(cell.tolist(), metric.tolist(), hour.tolist())]
    # the names rise, so rising index triples are keys in sorted order
    order = (cell * len(metrics) + metric) * 24 + hour
    unsorted = order[1:] <= order[:-1]
    if unsorted.any():
        raise ValueError(f"key {keys[np.argmax(unsorted) + 1]} repeats or is out of sorted order")
    if not (np.isfinite(lo) & np.isfinite(hi) & (lo < hi)).all():
        raise ValueError("sketch bounds must be finite with lo < hi")
    if (nbins > nb).any() or nbins.sum() != len(bins) or len(bins) != len(counts):
        raise ValueError(f"need nbins <= {nb} per key, summing to the lengths of bins and counts")
    cells_at = np.repeat(np.arange(0, n * nb, nb), nbins) + bins  # into the flattened count matrix
    if (bins >= nb).any() or (cells_at[1:] <= cells_at[:-1]).any():
        raise ValueError(f"bins: need bins rising within 0..{nb - 1} per key")
    table = np.zeros((n, nb), dtype=np.int64)
    table.reshape(-1)[cells_at] = counts
    empty = table.sum(axis=1) + underflow + overflow == 0
    if empty.any():
        raise ValueError(f"key {keys[np.argmax(empty)]} has zero total mass")
    through = header.trained_through
    if not (through is None if n == 0 else type(through) is int and -(2**63) <= through < 2**63):
        raise ValueError("trained_through: need an int64 window start, null only for a model without keys")
    return BaselineModel(
        config=cfg,
        metric_meta=metric_meta,
        sketches=SketchTable(keys, lo, hi, table, underflow, overflow),
        trained_through=through,
    )


def _names(values: list, what: str) -> list[str]:
    if isinstance(values, list) and set(map(type, values)) <= {str}:
        if all(a < b for a, b in zip(values, values[1:])):
            return values
    raise ValueError(f"{what}: expected strings in strictly rising order")


def _array(values: list | np.ndarray, what: str, dtype: type) -> np.ndarray:
    """A JSON array as an array: ints >= 0 for int64, any numbers for float64; never bools.

    An int64 array from ``_int_column`` holds only such ints and is taken as it is.
    """
    counting = dtype is np.int64
    if counting and isinstance(values, np.ndarray):
        return values
    if isinstance(values, list) and set(map(type, values)) <= ({int} if counting else {int, float}):
        array = np.array(values, dtype=dtype)
        if not (counting and (array < 0).any()):
            return array
    raise ValueError(f"{what}: expected an array of {'non-negative integers' if counting else 'numbers'}")
