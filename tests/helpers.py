"""Shared test fixtures: independent oracles and random case generators.

The Apriori oracle counts itemsets by scanning transactions for every
candidate subset of the item universe; it never touches the count tables
that ``mine_rare_rules`` mines, so mining results can be checked against it
exactly. The diagnosis oracle ranks every candidate rule by frozenset
Jaccard distance and a full sort; it never touches the postings index that
``rca.diagnose`` ranks against. The sketch oracle inserts one value at a
time and walks one histogram's positions in order; it never touches the
arrays of ``SketchTable``. The exact statistics take the median and MAD of
the raw values, with the lower-median convention that the sketch estimates
follow. The persistence scan sums every span of flags; it never touches the
convolutions of ``postfilter._persistence_survivors``. The filter pass runs
that scan, then merges and picks peaks in Python lists; it never touches the
record columns that ``postfilter.apply_filters`` reads. The row grammars
check one metric CSV or CDR line at a time with ``bytes`` and ``float()``;
they never touch the array checks that ``ingest.parse_metric_csv`` and
``ingest.parse_cdr`` run over the blocks of ``ingest._read_rows``. Both
formats share one grammar for characters, field counts, integers and
numbers, stated once here by ``_split_row``, ``_integer_error`` and
``_float_error``. The call oracle makes each cell's CDR draws with numpy's
own calls, in the stream order that ``synth._generate_calls`` fixes, and
sorts, scales, compares and hex-formats them one cell and one window at a
time. The model codec oracle writes a model document with ``json.dumps`` of
its lists and reads one with ``json.loads``, a type check of every value and
``np.array``; it never touches the digit matrices and the per-array decoder
of ``baseline.model_to_json`` and ``baseline.load_model``. The clean oracle
takes each span's quartiles with its own ``np.percentile`` call and sums a
repeated key's counts after a stable sort; the fit oracle bins one (cell,
metric) pair at a time; neither touches the padded matrices and chunked
codes of ``cleaning.clean`` and ``baseline.fit_baseline``. The field-window
oracle gathers each field's bytes through a 2-D ``sliding_window_view``
index; it never touches the strided fixed-width items of ``ingest._tails``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from cellwatch.baseline import (
    MAD_CONSISTENCY,
    MODEL_SCHEMA_VERSION,
    SCALE_EPSILON,
    BaselineModel,
    DetectorConfig,
    Direction,
    SketchTable,
    _data_driven_bounds,
    hour_bucket,
)
from cellwatch.cleaning import CleanConfig, CleanDetail, CleanReport
from cellwatch.errors import CellwatchError, EmptyTraining, MalformedRow, SchemaMismatch, TooFewPoints, UnknownMetric
from cellwatch.fingerprints import FingerprintDb, MineConfig, SymptomItem, SymptomState, Transaction, _tokens
from cellwatch.fogsim import FogTopology, Scenario, Tier, build_topology, default_scenario
from cellwatch.ingest import Catalog, CdrCalls, MetricKind, MetricSeries, Polarity
from cellwatch.jsondoc import decode, encode, read
from cellwatch.postfilter import AnomalyEvent, FilterConfig
from cellwatch.rca import Diagnosis, RankedCause, SymptomSet, jaccard_distance
from cellwatch import synth


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
    """Fixed-bounds counting histogram, one value at a time (test oracle)."""

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

        Underflow/overflow mass is pinned to lo/hi; both statistics take the
        ceil(n/2)-th unit of mass in value order.
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


def table_sketch(table, row: int) -> HistogramSketch:
    """One row of a SketchTable as an oracle sketch."""
    return HistogramSketch(
        lo=float(table.lo[row]),
        hi=float(table.hi[row]),
        counts=table.counts[row].tolist(),
        underflow=int(table.underflow[row]),
        overflow=int(table.overflow[row]),
    )


def key_estimate(model, key) -> tuple[float, float, float]:
    """Median, MAD and bin width of one key of a model, from its table row."""
    table = model.sketches
    row = table.keys.index(key)
    _, med, mad = table.stats(slice(row, row + 1))
    return float(med[0]), float(mad[0]), float(table.hi[row] - table.lo[row]) / table.counts.shape[1]


def oracle_clean(spans: list[MetricSeries], cfg: CleanConfig) -> tuple[list[MetricSeries], CleanReport]:
    """``cleaning.clean``'s pass over training spans, one span at a time, with one ``np.percentile`` call per span.

    Raises TooFewPoints for the first span that keeps too few points. The
    detail is the per-span details, stably sorted by key, with each run of an
    equal key summed.
    """
    cleaned, details = [], []
    for span in spans:
        values = span.values[~np.isnan(span.values)]
        keep = np.ones(len(values), dtype=bool)
        if len(values):
            q1, q3 = np.percentile(values, [25.0, 75.0])
            iqr = q3 - q1
            keep = (values >= q1 - cfg.iqr_multiplier * iqr) & (values <= q3 + cfg.iqr_multiplier * iqr)
        n_kept = int(np.count_nonzero(keep))
        if n_kept < cfg.min_points:
            raise TooFewPoints(f"{span.cell_id}/{span.metric_name}: {n_kept} points after cleaning, "
                               f"need {cfg.min_points}")
        present = ~np.isnan(span.values)
        cleaned.append(replace(span, window_starts=span.window_starts[present][keep], values=values[keep]))
        details.append(CleanDetail(span.cell_id, span.metric_name, len(span.values) - len(values),
                                   len(values) - n_kept))
    detail: list[CleanDetail] = []
    for d in sorted(details, key=lambda d: (d.cell_id, d.metric)):
        if detail and (detail[-1].cell_id, detail[-1].metric) == (d.cell_id, d.metric):
            d = replace(d, missing=detail[-1].missing + d.missing, extremes=detail[-1].extremes + d.extremes)
            detail.pop()
        detail.append(d)
    return cleaned, CleanReport(sum(d.missing for d in details), sum(d.extremes for d in details), detail)


def oracle_train_span(series: MetricSeries, train_fraction: float) -> MetricSeries:
    """The first ceil(n * fraction) points, or TooFewPoints if they or the points after them are empty."""
    n = len(series.values)
    cut = math.ceil(n * train_fraction)
    if cut == 0 or cut >= n:
        raise TooFewPoints(f"{series.cell_id}/{series.metric_name}: split {cut}/{n - cut} leaves an empty part")
    return replace(series, window_starts=series.window_starts[:cut], values=series.values[:cut])


def oracle_split_clean(
    series: list[MetricSeries], cfg: CleanConfig, train_fraction: float
) -> tuple[list[MetricSeries], CleanReport]:
    """``cleaning.clean`` as a cut, then ``oracle_clean``: at the first series whose split fails,
    the spans before it are cleaned first, so an earlier span that keeps too few points is named."""
    spans = []
    for s in series:
        try:
            spans.append(oracle_train_span(s, train_fraction))
        except TooFewPoints:
            oracle_clean(spans, cfg)
            raise
    return oracle_clean(spans, cfg)


def tailed(span: MetricSeries) -> MetricSeries:
    """``span`` followed by as many MISSING windows: at train fraction 0.5, its training span is ``span``."""
    n = len(span.values)
    after = (span.window_starts[-1] if n else -span.window_len) + span.window_len * np.arange(1, n + 1)
    return replace(span, window_starts=np.concatenate([span.window_starts, after]),
                   values=np.concatenate([span.values, np.full(n, np.nan)]))


def oracle_fit_baseline(train: list[MetricSeries], cfg: DetectorConfig) -> BaselineModel:
    """``baseline.fit_baseline`` one (cell, metric) pair at a time, with an ``np.unique`` and a ``bincount`` each."""
    if not train:
        raise EmptyTraining("no training series given")
    metric_meta, per_pair = {}, {}
    for series in train:
        meta = (series.kind, series.polarity)
        if metric_meta.setdefault(series.metric_name, meta) != meta:
            raise ValueError(f"conflicting kind/polarity for metric {series.metric_name!r}")
        per_pair.setdefault((series.cell_id, series.metric_name), []).append(series)
    fixed, nb = cfg.bounds or {}, cfg.bin_count
    keys, columns, lasts, rows = [], [], [], []
    for cell_id, metric in sorted(per_pair):
        group = per_pair[(cell_id, metric)]
        values = np.concatenate([s.values for s in group])
        present = ~np.isnan(values)
        starts, values = np.concatenate([s.window_starts for s in group])[present], values[present]
        seen, row = np.unique(hour_bucket(starts), return_inverse=True)
        n = len(seen)
        if n:
            lasts.append(int(starts.max()))
        if fixed.get(metric):
            lo, hi = (np.full(n, float(bound)) for bound in fixed[metric])
        else:
            mins, maxs = np.full(n, np.inf), np.full(n, -np.inf)
            np.minimum.at(mins, row, values)
            np.maximum.at(maxs, row, values)
            lo, hi = _data_driven_bounds(mins, maxs, nb)
        if not (lo < hi).all():
            raise ValueError(f"need lo < hi in every sketch of {(cell_id, metric)}")
        under, over = values < lo[row], values > hi[row]
        inside = ~(under | over)
        width = ((hi - lo) / nb)[row[inside]]
        bins = ((values[inside] - lo[row[inside]]) / width).astype(np.int64)
        np.minimum(bins, nb - 1, out=bins)
        rows.append(np.bincount(row[inside] * nb + bins, minlength=n * nb).reshape(n, nb))
        keys += [(cell_id, metric, h) for h in seen.tolist()]
        columns.append((lo, hi, *(np.bincount(row[side], minlength=n) for side in (under, over))))
    lo, hi, underflow, overflow = (np.concatenate(column) for column in zip(*columns))
    table = SketchTable(keys, lo, hi, np.concatenate(rows).reshape(len(keys), nb), underflow, overflow)
    return BaselineModel(cfg, metric_meta, table, trained_through=max(lasts, default=None))


OracleRule = tuple[frozenset[SymptomItem], str, int, int]  # antecedent, consequent, q_count, global_count


def oracle_model_to_json(model: BaselineModel) -> str:
    """The model document as ``json.dumps`` writes it from lists of Python numbers."""
    t = model.sketches
    cells, metrics = (sorted({key[i] for key in t.keys}) for i in (0, 1))
    cell_index, metric_index = ({name: i for i, name in enumerate(names)} for names in (cells, metrics))
    rows, bins = np.nonzero(t.counts)
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
            "cell": [cell_index[cell] for cell, _, _ in t.keys],
            "metric": [metric_index[metric] for _, metric, _ in t.keys],
            "hour": [hour for _, _, hour in t.keys],
        },
        "sketches": {
            "bin_count": t.counts.shape[1],
            "lo": t.lo.tolist(),
            "hi": t.hi.tolist(),
            "underflow": t.underflow.tolist(),
            "overflow": t.overflow.tolist(),
            "nbins": np.bincount(rows, minlength=len(t)).tolist(),
            "bins": bins.tolist(),
            "counts": t.counts[rows, bins].tolist(),
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def oracle_load_model(path: str | Path) -> BaselineModel:
    """The model document at ``path`` read by ``json.loads``, with every value's type checked in Python."""
    doc = read(path)  # json.loads
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported model schema {doc.get('schema_version')!r}")
    try:
        return _oracle_model_from_doc(doc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SchemaMismatch(f"malformed model document: {type(exc).__name__}: {exc}") from None


def _oracle_model_from_doc(doc: dict) -> BaselineModel:
    cfg = decode(DetectorConfig, doc["config"], "config")
    metric_meta = {
        name: (MetricKind(entry["kind"]), Polarity(entry["polarity"]))
        for name, entry in doc["metrics"].items()
    }
    columns, sketches, nb = doc["keys"], doc["sketches"], cfg.bin_count
    if not (type(sketches["bin_count"]) is int and sketches["bin_count"] == nb):
        raise ValueError(f"sketches.bin_count differs from the config's {nb}")
    cells, metrics = (_oracle_names(columns[name], name) for name in ("cell_names", "metric_names"))
    cell, metric, hour = (_oracle_array(columns[name], name, np.int64) for name in ("cell", "metric", "hour"))
    lo, hi = (_oracle_array(sketches[name], name, np.float64) for name in ("lo", "hi"))
    underflow, overflow, nbins, bins, counts = (
        _oracle_array(sketches[name], name, np.int64)
        for name in ("underflow", "overflow", "nbins", "bins", "counts")
    )
    n = len(hour)
    if any(len(column) != n for column in (cell, metric, lo, hi, underflow, overflow, nbins)):
        raise ValueError(f"every per-key column needs {n} values, as many as hour has")
    if (cell >= len(cells)).any() or (metric >= len(metrics)).any() or (hour >= 24).any():
        raise ValueError("keys: need name indices within cell_names and metric_names, hours 0..23")
    keys = [(cells[c], metrics[m], h) for c, m, h in zip(cell.tolist(), metric.tolist(), hour.tolist())]
    order = (cell * len(metrics) + metric) * 24 + hour
    unsorted = order[1:] <= order[:-1]
    if unsorted.any():
        raise ValueError(f"key {keys[np.argmax(unsorted) + 1]} repeats or is out of sorted order")
    if not (np.isfinite(lo) & np.isfinite(hi) & (lo < hi)).all():
        raise ValueError("sketch bounds must be finite with lo < hi")
    if (nbins > nb).any() or nbins.sum() != len(bins) or len(bins) != len(counts):
        raise ValueError(f"need nbins <= {nb} per key, summing to the lengths of bins and counts")
    cells_at = np.repeat(np.arange(0, n * nb, nb), nbins) + bins
    if (bins >= nb).any() or (cells_at[1:] <= cells_at[:-1]).any():
        raise ValueError(f"bins: need bins rising within 0..{nb - 1} per key")
    table = np.zeros((n, nb), dtype=np.int64)
    table.reshape(-1)[cells_at] = counts
    empty = table.sum(axis=1) + underflow + overflow == 0
    if empty.any():
        raise ValueError(f"key {keys[np.argmax(empty)]} has zero total mass")
    through = doc["trained_through"]
    if not (through is None if n == 0 else type(through) is int and -(2**63) <= through < 2**63):
        raise ValueError("trained_through: need an int64 window start, null only for a model without keys")
    return BaselineModel(cfg, metric_meta, SketchTable(keys, lo, hi, table, underflow, overflow), through)


def _oracle_names(values: list, what: str) -> list[str]:
    if isinstance(values, list) and set(map(type, values)) <= {str}:
        if all(a < b for a, b in zip(values, values[1:])):
            return values
    raise ValueError(f"{what}: expected strings in strictly rising order")


def _oracle_array(values: list, what: str, dtype: type) -> np.ndarray:
    counting = dtype is np.int64
    if isinstance(values, list) and set(map(type, values)) <= ({int} if counting else {int, float}):
        array = np.array(values, dtype=dtype)
        if not (counting and (array < 0).any()):
            return array
    raise ValueError(f"{what}: expected an array of {'non-negative integers' if counting else 'numbers'}")


def apriori_rare_rules(transactions: list[Transaction], cfg: MineConfig) -> set[OracleRule]:
    """Brute-force enumeration of the rare-rule set (independent oracle)."""
    total = len(transactions)
    if total == 0:
        return set()
    ceiling = math.ceil(cfg.s_max_fraction * total)
    universe = sorted({item for t in transactions for item in t.items})
    consequent_totals: dict[str, int] = {}
    for t in transactions:
        consequent_totals[t.consequent] = consequent_totals.get(t.consequent, 0) + 1

    from itertools import combinations

    rules: set[OracleRule] = set()
    for size in range(1, cfg.max_antecedent + 1):
        for combo in combinations(universe, size):
            candidate = frozenset(combo)
            global_count = sum(1 for t in transactions if candidate <= t.items)
            if global_count == 0:
                continue
            per_q: dict[str, int] = {}
            for t in transactions:
                if candidate <= t.items:
                    per_q[t.consequent] = per_q.get(t.consequent, 0) + 1
            for q, q_count in per_q.items():
                if not cfg.s_min_count <= q_count <= ceiling:
                    continue
                confidence = q_count / global_count
                if confidence < cfg.c_min:
                    continue
                lift = confidence / (consequent_totals[q] / total)
                if lift < cfg.lift_min:
                    continue
                rules.add((candidate, q, q_count, global_count))
    return rules


def brute_force_diagnose(
    db: FingerprintDb, symptoms: SymptomSet, k: int, match_threshold: float
) -> Diagnosis:
    """Filter the rules by consequent, score each by Jaccard distance and sort them all."""
    candidates = [r for r in db.rules if r.consequent == symptoms.consequent]
    scored = [
        RankedCause(
            cause_label=rule.cause_label,
            distance=jaccard_distance(rule.antecedent, symptoms.items),
            fingerprint=rule,
        )
        for rule in candidates
    ]
    scored.sort(
        key=lambda r: (
            r.distance,
            -r.fingerprint.confidence,
            -r.fingerprint.support_count,
            tuple(_tokens(r.fingerprint.antecedent)),
        )
    )
    ranked = scored[:k]
    matched = bool(ranked) and ranked[0].distance <= match_threshold
    return Diagnosis(ranked=ranked, matched=matched, match_threshold=match_threshold)


def random_transactions(rng: np.random.Generator, max_items: int = 12, max_tx: int = 64) -> list[Transaction]:
    n_items = int(rng.integers(2, max_items + 1))
    pool = [
        SymptomItem(f"m{i:02d}", SymptomState.HIGH if rng.random() < 0.5 else SymptomState.LOW)
        for i in range(n_items)
    ]
    n_consequents = int(rng.integers(1, 4))
    consequents = [f"q{j}" for j in range(n_consequents)]
    n_tx = int(rng.integers(1, max_tx + 1))
    txs = []
    for i in range(n_tx):
        k = int(rng.integers(0, min(n_items, 6) + 1))
        chosen = rng.choice(n_items, size=k, replace=False)
        txs.append(
            Transaction(
                items=frozenset(pool[int(c)] for c in chosen),
                consequent=consequents[int(rng.integers(n_consequents))],
                key=(f"cell-{i:03d}", i * 300),
            )
        )
    return txs


def random_mine_config(rng: np.random.Generator) -> MineConfig:
    return MineConfig(
        s_min_count=int(rng.integers(1, 5)),
        s_max_fraction=float(rng.uniform(0.05, 1.0)),
        c_min=float(rng.uniform(0.05, 1.0)),
        lift_min=float(rng.uniform(0.5, 2.0)),
        max_antecedent=int(rng.integers(1, 5)),
    )


def rules_as_oracle_set(rules) -> set[OracleRule]:
    return {(r.antecedent, r.consequent, r.support_count, r.antecedent_count) for r in rules}


def make_series(
    values,
    cell_id: str = "c1",
    metric_name: str = "m1",
    kind: MetricKind = MetricKind.KQI,
    polarity: Polarity = Polarity.HIGHER_IS_WORSE,
    window_len: int = 300,
    start: int = 0,
) -> MetricSeries:
    """A grid-complete series from a list of values; None marks MISSING."""
    return MetricSeries(
        cell_id=cell_id,
        metric_name=metric_name,
        kind=kind,
        polarity=polarity,
        window_len=window_len,
        window_starts=start + window_len * np.arange(len(values), dtype=np.int64),
        values=np.array([np.nan if v is None else v for v in values], dtype=np.float64),
    )


def persistence_survivors_scan(flags: list[bool], m: int, n: int) -> list[int]:
    """Flagged windows inside some n-window span with >= m flags, by summing every span.

    The spans are those that fit in the stream, or the whole stream when it
    is shorter than n.
    """
    spans = [range(s, s + n) for s in range(len(flags) - n + 1)] or [range(len(flags))]
    return [
        i
        for i, flagged in enumerate(flags)
        if flagged and any(i in span and sum(flags[j] for j in span) >= m for span in spans)
    ]


def filter_events_scan(
    window_starts: list[int],
    flags: list[bool],
    scores: list[float],
    directions: list[Direction],
    cfg: FilterConfig,
    *,
    cell_id: str,
    metric_name: str,
) -> list[AnomalyEvent]:
    """The events of one stream by the span scan, a merge and a peak pick, window by window.

    Survivors at most ``merge_gap`` quiet windows apart share a group, and
    each group's peak is the first maximum score among its flagged windows.
    """
    groups: list[list[int]] = []
    for i in persistence_survivors_scan(flags, cfg.persistence_m, cfg.persistence_n):
        if groups and i - groups[-1][-1] - 1 <= cfg.merge_gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    events = []
    for group in groups:
        lo, hi = group[0], group[-1]
        peak = max((i for i in range(lo, hi + 1) if flags[i]), key=lambda i: scores[i])
        if scores[peak] >= cfg.min_peak_score:
            events.append(AnomalyEvent(cell_id, metric_name, window_starts[lo], window_starts[hi],
                                       scores[peak], window_starts[peak], directions[peak]))
    return events


def oracle_tails(buf: np.ndarray, hi: np.ndarray, n_bytes: np.ndarray, limit: int, fill: int) -> np.ndarray:
    """``ingest._tails``: the last ``width = min(max(n_bytes), limit)`` bytes (at least 1) of each field ending at ``hi``.

    Row j of the (width, rows) uint8 matrix holds byte j of every field's window; bytes before a field read as ``fill``.
    """
    width = int(min(n_bytes.max(initial=1), limit))
    text = np.ascontiguousarray(sliding_window_view(buf, width)[hi - width].T)
    inside = np.arange(width, dtype=np.uint8)[:, None] >= np.clip(width - n_bytes, 0, width).astype(np.uint8)
    # uint8 wraps around, so (byte - fill) * inside + fill is the byte inside a field and fill before it.
    text -= np.uint8(fill)
    text *= inside
    text += np.uint8(fill)
    return text


def _split_row(line_no: int, line: bytes, count: int) -> list[bytes] | MalformedRow:
    """The fields of a CSV row, or its error: a '"', NUL or CR byte, then a field count other than ``count``."""
    for ch in (b'"', b"\0", b"\r"):
        if ch in line:
            return MalformedRow(line_no, f"unsupported character {ch.decode()!r}")
    fields = line.split(b",")
    if len(fields) != count:
        return MalformedRow(line_no, f"expected {count} fields, got {len(fields)}")
    return fields


def _integer_error(line_no: int, name: str, field: bytes) -> MalformedRow | None:
    """What keeps a field from being an optional '-' and 1 to 18 decimal digits, if anything."""
    text = field.decode("utf-8")
    if not re.fullmatch(rb"-?[0-9]+", field):
        return MalformedRow(line_no, f"non-integer {name} {text!r}")
    if len(field.lstrip(b"-")) > 18:
        return MalformedRow(line_no, f"{name} {text} has more than 18 digits")
    return None


def _float_error(line_no: int, name: str, field: bytes) -> MalformedRow | None:
    """What keeps a field from being a finite float() literal of at most 40 bytes, if anything."""
    text = field.decode("utf-8")
    if len(field) > 40:
        return MalformedRow(line_no, f"{name} longer than 40 bytes")
    try:
        value = float(field)
    except ValueError:
        return MalformedRow(line_no, f"non-numeric {name} {text!r}")
    if not math.isfinite(value):
        return MalformedRow(line_no, f"non-finite {name} {text!r}")
    return None


def row_error(line_no: int, line: bytes, kind: MetricKind, catalog: Catalog) -> CellwatchError | None:
    """The first thing wrong with one metric CSV data row, checked in column order.

    ``line`` is the row without its LF or CR LF. A row has four fields: a
    metric of the file's kind in the catalog, a window_start of an optional
    '-' and 1 to 18 decimal digits aligned to the metric's window, and an
    empty value or a finite float() literal of at most 40 bytes.
    """
    fields = _split_row(line_no, line, 4)
    if isinstance(fields, MalformedRow):
        return fields
    _, metric_b, ws_b, value_b = fields
    metric_name = metric_b.decode("utf-8")
    info = catalog.get(metric_name)
    if info is None:
        return UnknownMetric(metric_name)
    if info.kind != kind:
        return MalformedRow(line_no, f"metric {metric_name!r} is {info.kind.value}, expected {kind.value}")
    error = _integer_error(line_no, "window_start", ws_b)
    if error is not None:
        return error
    if int(ws_b) % info.window_len != 0:
        return MalformedRow(line_no, f"window_start {int(ws_b)} not aligned to window_len {info.window_len}")
    return _float_error(line_no, "value", value_b) if value_b else None


def cdr_row_error(line_no: int, line: bytes) -> MalformedRow | None:
    """The first thing wrong with one CDR data row, checked in column order.

    ``line`` is the row without its LF or CR LF. A row has six fields: a
    cell id, a start_time of an optional '-' and 1 to 18 decimal digits, a
    duration that is a finite, non-negative float() literal of at most 40
    bytes, a dropped flag of 0 or 1, and two endpoint hashes.
    """
    fields = _split_row(line_no, line, 6)
    if isinstance(fields, MalformedRow):
        return fields
    _, start_b, duration_b, dropped_b, _, _ = fields
    error = _integer_error(line_no, "start_time", start_b) or _float_error(line_no, "duration", duration_b)
    if error is not None:
        return error
    if float(duration_b) < 0:
        return MalformedRow(line_no, f"negative duration {float(duration_b)}")
    if dropped_b not in (b"0", b"1"):
        return MalformedRow(line_no, f"dropped must be 0 or 1, got {dropped_b.decode('utf-8')!r}")
    return None


def nodes_of(topology: FogTopology, tier: Tier) -> list[str]:
    """The topology's nodes of one tier, sorted."""
    return sorted(n for n, t in topology.tiers.items() if t == tier)


def cells_of(topology: FogTopology, edge: str) -> list[str]:
    """The cells assigned to one EDGE node, sorted."""
    return sorted(c for c, e in topology.cell_assignment.items() if e == edge)


def random_fog_case(seed: int):
    """A small random (topology, scenario) pair with a 2..8-way fog partition."""
    rng = np.random.default_rng(seed)
    n_fogs = int(rng.integers(2, 9))
    nodes = [{"id": "cloud", "tier": "CLOUD", "parent": None}]
    links = {}
    cells = {}
    cell_idx = 0
    for f in range(n_fogs):
        fog = f"fog-{f}"
        nodes.append({"id": fog, "tier": "FOG", "parent": "cloud"})
        links[fog] = {"bandwidth_bps": float(rng.uniform(1e6, 2e7)), "latency_s": 0.01}
        edge = f"edge-{f}"
        nodes.append({"id": edge, "tier": "EDGE", "parent": fog})
        links[edge] = {"bandwidth_bps": float(rng.uniform(1e5, 5e6)), "latency_s": 0.01}
        for _ in range(int(rng.integers(1, 3))):
            cells[f"cell-{cell_idx:03d}"] = edge
            cell_idx += 1
    topology = build_topology({"nodes": nodes, "links": links, "cells": cells})

    spec = synth.default_spec(
        n_cells=cell_idx,
        days=1.0,
        window_len=1800,
        seed=int(rng.integers(0, 2**31)),
        anomaly_count=int(rng.integers(0, 4)),
        magnitude=8.0,
        calls_per_window=float(rng.choice([0.0, 6.0])),
    )
    spec.anomalies = synth.AutoPlan(count=spec.anomalies.count, magnitude=8.0, min_windows=2, max_windows=5)
    scenario = Scenario(
        spec=spec,
        clean_cfg=CleanConfig(iqr_multiplier=6.0, min_points=8),
        detector_cfg=DetectorConfig(
            bin_count=int(rng.choice([32, 64])),
            tau=3.5,
            min_samples=int(rng.integers(1, 4)),
        ),
        filter_cfg=FilterConfig(
            persistence_m=int(rng.integers(1, 3)),
            persistence_n=3,
            merge_gap=int(rng.integers(0, 3)),
            min_peak_score=3.5,
        ),
        mine_cfg=MineConfig(
            s_min_count=int(rng.integers(1, 3)),
            s_max_fraction=float(rng.uniform(0.3, 1.0)),
            c_min=0.3,
            lift_min=0.8,
            max_antecedent=3,
        ),
        z_symptom=2.5,
    )
    return topology, scenario


def tiny_scenario(**spec_kw) -> Scenario:
    """The default scenario's knobs on a small spec: 4 cells, 1 day of 30-minute windows."""
    base = default_scenario()
    defaults = dict(n_cells=4, days=1.0, window_len=1800, seed=77, anomaly_count=1, calls_per_window=3.0)
    defaults.update(spec_kw)
    base.spec = synth.default_spec(**defaults)
    base.clean_cfg = CleanConfig(min_points=8)
    base.detector_cfg = DetectorConfig(bin_count=32, tau=3.5, min_samples=2)
    return base


def sparse_traffic_scenario() -> Scenario:
    """0.3 calls per window on the default topology's 8 cells."""
    return tiny_scenario(n_cells=8, days=2.0, seed=2, calls_per_window=0.3)


def calls_by_window(spec: synth.ScenarioSpec) -> CdrCalls:
    """Reference CDR calls: each cell's draws from numpy, each window's offsets sorted on their own."""
    cdr = spec.cdr
    starts = np.arange(spec.n_windows, dtype=np.int64) * spec.window_len
    per_cell, start_time, duration, dropped, endpoints = [], [], [], [], []
    for ci in range(spec.n_cells):
        rng = np.random.default_rng([spec.seed, 2, ci])
        counts = rng.poisson(cdr.calls_per_window, len(starts))
        n = int(counts.sum())
        offsets = rng.integers(0, spec.window_len, n)
        duration.append(rng.exponential(cdr.duration_mean, n))
        dropped.append(rng.random(n) < cdr.drop_prob)
        endpoints += rng.integers(0, 2**32, (n, 2), dtype=np.uint64).tolist()
        ends = np.cumsum(counts)
        for wi, (lo, hi) in enumerate(zip((ends - counts).tolist(), ends.tolist())):
            offsets[lo:hi] = np.sort(offsets[lo:hi]) + starts[wi]
        per_cell.append(n)
        start_time.append(offsets)
    n = sum(per_cell)
    hashes = np.array([[f"{v:08x}" for v in pair] for pair in endpoints], dtype="U8").reshape(n, 2)
    cell_id = np.repeat(np.array(spec.cell_ids()), per_cell)
    duration = np.round(np.concatenate(duration), 1)
    return CdrCalls(cell_id, np.concatenate(start_time), duration, np.concatenate(dropped), hashes[:, 0], hashes[:, 1])
