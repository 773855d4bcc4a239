"""Fingerprint learning: symptom transactions, rare-rule mining, rule store.

A transaction is the set of KPI symptoms observed at the peak of one KQI
degradation event. Rules (antecedent symptom set -> degraded KQI) come from
itemset count tables: ``itemset_count_tables`` counts every itemset of up to
``max_antecedent`` symptoms per consequent, and ``mine_from_counts`` keeps
those in the support band [s_min_count, ceil(s_max_fraction * N)] (the floor
drops chance co-occurrences, the ceiling keeps only rare-and-diagnostic
patterns) that pass the confidence and lift floors.

Count tables are additive: tables built on partitions of the transactions
and merged by ``merge_count_tables`` equal the pooled tables. Mining the
pooled transactions (``mine_rare_rules``) is ``mine_from_counts`` on the
pooled tables, so fog-merged and centralized rules come from one routine.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, combinations
from pathlib import Path
from typing import Any

import numpy as np

from .baseline import BaselineModel, _score_values
from .errors import CorruptDb, SchemaMismatch, TooManyItemsets, UnknownKey
from .ingest import MetricKind, MetricSeries
from .jsondoc import decode, dumps, read, require_object
from .postfilter import AnomalyEvent

log = logging.getLogger(__name__)

DB_SCHEMA_VERSION = 1

# itemset_count_tables enumerates at most this many subsets of transactions
# in one call; a larger count is refused before any subset is built.
MAX_ITEMSETS = 2**24


class SymptomState(str, Enum):
    HIGH = "HIGH"
    LOW = "LOW"


@dataclass(frozen=True, order=True)
class SymptomItem:
    """One KPI symptom, ordered by (metric_name, state).

    ``token`` (``metric=STATE``) is built once, on construction, and carries
    the item's hash and equality: a state holds no ``=`` and ``from_token``
    splits at the last one, so two items are equal exactly when their tokens
    are. A str caches its own hash, so hashing an item costs no tuple or enum
    hash, and a pickled item hashes afresh under another hash seed.
    """

    metric_name: str
    state: SymptomState
    token: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "token", f"{self.metric_name}={self.state.value}")

    def __hash__(self) -> int:
        return hash(self.token)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SymptomItem:
            return NotImplemented
        return self is other or self.token == other.token

    @classmethod
    def from_token(cls, token: str) -> "SymptomItem":
        name, _, state = token.rpartition("=")
        if not name:
            raise ValueError(f"bad symptom token {token!r}")
        return cls(name, SymptomState(state))


Itemset = frozenset[SymptomItem]


def _tokens(items: Itemset) -> list[str]:
    return sorted(it.token for it in items)


def itemset_from_tokens(tokens: list[str], where: str, parsed: dict[str, SymptomItem]) -> Itemset:
    """The itemset of distinct ``metric=STATE`` tokens; SchemaMismatch naming ``where`` if not.

    ``parsed`` maps each token already parsed to its item, so a document
    parses each distinct token once and its itemsets share the items.
    """
    items = []
    try:
        for token in tokens:
            item = parsed.get(token)
            if item is None:
                item = parsed[token] = SymptomItem.from_token(token)
            items.append(item)
    except (AttributeError, TypeError, ValueError):  # not a str, unhashable, or not a token
        raise SchemaMismatch(f"{where}: bad symptom tokens {tokens}") from None
    itemset = frozenset(items)
    if len(itemset) < len(items):
        raise SchemaMismatch(f"{where}: repeated symptom tokens {tokens}")
    return itemset


@dataclass
class Transaction:
    items: Itemset
    consequent: str  # the degraded KQI
    key: tuple[str, int]  # (cell_id, window_start)


@dataclass(frozen=True)
class MineConfig:
    s_min_count: int = 3
    s_max_fraction: float = 0.10
    c_min: float = 0.8
    lift_min: float = 1.5
    max_antecedent: int = 4

    def __post_init__(self) -> None:
        if self.s_min_count < 1:
            raise ValueError("s_min_count must be >= 1")
        if not 0 < self.s_max_fraction <= 1:
            raise ValueError("s_max_fraction must be in (0, 1]")
        if not 0 < self.c_min <= 1:
            raise ValueError("c_min must be in (0, 1]")
        if not 0 < self.lift_min < math.inf:
            raise ValueError("lift_min must be > 0 and finite")
        if self.max_antecedent < 1:
            raise ValueError("max_antecedent must be >= 1")


@dataclass
class Fingerprint:
    """A mined rare rule with its statistics and optional expert label."""

    antecedent: Itemset
    consequent: str
    support: float
    support_count: int
    antecedent_count: int
    confidence: float
    lift: float
    cause_label: str | None = None


@dataclass
class FingerprintDb:
    rules: list[Fingerprint]
    transaction_total: int
    built_at: int = 0
    schema_version: int = DB_SCHEMA_VERSION
    # rca's diagnosis index over ``rules``, built on the first diagnose; a
    # cache, so it takes no part in equality, repr or the JSON form
    _index: Any = field(default=None, init=False, compare=False, repr=False)


def empty_db() -> FingerprintDb:
    return FingerprintDb(rules=[], transaction_total=0)


def build_transactions(
    events: list[AnomalyEvent],
    kpi_series: list[MetricSeries],
    model: BaselineModel,
    z_symptom: float = 3.0,
) -> list[Transaction]:
    """One transaction per event: the cell's KPI symptoms at the peak window.

    A KPI contributes (kpi, HIGH) when its value at the event's peak window
    scores >= z_symptom above its baseline median, (kpi, LOW) when below.
    Each (cell, KPI) scores the peak windows of all its cell's events at once.
    A cell with no KPI data at that window yields an empty transaction and a
    warning; that is diagnostic-data loss, not a fatal condition.
    """
    if not 0 < z_symptom < math.inf:
        raise ValueError("z_symptom must be > 0 and finite")
    kpis_by_cell: dict[str, dict[str, MetricSeries]] = {}
    for s in kpi_series:
        if s.kind == MetricKind.KPI and len(s.window_starts):
            kpis_by_cell.setdefault(s.cell_id, {})[s.metric_name] = s
    events_by_cell: dict[str, list[int]] = {}
    for i, event in enumerate(events):
        events_by_cell.setdefault(event.cell_id, []).append(i)

    items: list[set[SymptomItem]] = [set() for _ in events]
    saw_value = np.zeros(len(events), dtype=bool)
    for cell_id, ids in events_by_cell.items():
        peaks = np.array([events[i].peak_window for i in ids], dtype=np.int64)
        for kpi, series in kpis_by_cell.get(cell_id, {}).items():
            # the value at each peak window, NaN where the window is absent or MISSING
            at = np.minimum(np.searchsorted(series.window_starts, peaks), len(series.window_starts) - 1)
            values = np.where(series.window_starts[at] == peaks, series.values[at], np.nan)
            saw_value[ids] |= ~np.isnan(values)
            try:
                score, direction, _, _ = _score_values(model, cell_id, kpi, peaks, values)
            except UnknownKey:
                log.debug("no baseline for %s/%s, skipping its symptoms", cell_id, kpi)
                continue
            for j in np.flatnonzero(score >= z_symptom).tolist():  # a score > 0 has a direction
                state = SymptomState.HIGH if direction[j] == 1 else SymptomState.LOW
                items[ids[j]].add(SymptomItem(kpi, state))

    for event, saw in zip(events, saw_value.tolist()):
        if not saw:
            log.warning("cell %s has no KPI data at window %s; emitting empty transaction",
                        event.cell_id, event.peak_window)
    return [Transaction(frozenset(found), event.metric_name, (event.cell_id, event.peak_window))
            for event, found in zip(events, items)]


# ---------------------------------------------------------------------------
# Rule mining over itemset count tables


def _id_dtype(vocab_size: int) -> np.dtype:
    """The narrowest big-endian unsigned integer dtype that holds ids 1..vocab_size."""
    return next(np.dtype(f">u{n}") for n in (1, 2, 4) if vocab_size < 256**n)


def _keys(rows: np.ndarray, width: int) -> np.ndarray:
    """One bytes key per row of sorted ids, zero-padded to ``width`` ids."""
    padded = np.zeros((len(rows), width), dtype=rows.dtype)
    padded[:, : rows.shape[1]] = rows
    return padded.view(f"S{width * rows.dtype.itemsize}").ravel()


@dataclass(frozen=True, eq=False)
class ItemsetCounts:
    """Distinct itemset keys in ascending order, and how often each occurs."""

    keys: np.ndarray  # bytes
    counts: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.keys)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The count of each of ``keys``, 0 for a key not in the table."""
        if not len(self.keys):
            return np.zeros(len(keys), dtype=np.int64)
        at = np.searchsorted(self.keys, keys).clip(max=len(self.keys) - 1)
        return np.where(self.keys[at] == keys, self.counts[at], 0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ItemsetCounts)
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.counts, other.counts)
        )


def _summed(keys: np.ndarray, counts: np.ndarray | None = None) -> ItemsetCounts:
    """The distinct ``keys`` in ascending order with their summed ``counts`` (default 1 each).

    Keys are ordered by their bytes, the order numpy gives ``S`` values, by
    one stable lexsort over the byte columns, last byte first: an LSD radix
    sort, one counting pass per byte, where a comparison sort pays a
    byte-string compare per step. It gives that order at every key width.
    """
    columns = keys.view(np.uint8).reshape(len(keys), keys.dtype.itemsize)
    order = np.lexsort(columns.T[::-1])
    keys = keys[order]
    if counts is not None:
        counts = counts[order]
    if not len(keys):
        return ItemsetCounts(keys, np.zeros(0, dtype=np.int64))
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    if counts is None:
        return ItemsetCounts(keys[starts], np.diff(np.append(starts, len(keys))))
    return ItemsetCounts(keys[starts], np.add.reduceat(counts, starts))


@dataclass
class CountTables:
    """Additive itemset counts; merging partition tables gives the pooled tables.

    Tables hold every itemset of size 1..max_len present in any transaction
    (count floor 1), per consequent, so merged tables lose nothing that
    mining the pooled transactions could see. ``vocab`` is the distinct items
    sorted by token, and id i names ``vocab[i - 1]``. An itemset's key is its
    ids in ascending order as big-endian integers of the narrowest width that
    holds ``len(vocab)``, zero-padded to ``width`` ids, so keys sort in the
    token order of their itemsets, a prefix first.
    """

    vocab: list[SymptomItem] = field(default_factory=list)
    width: int = 1
    per_consequent: dict[str, ItemsetCounts] = field(default_factory=dict)
    consequent_totals: dict[str, int] = field(default_factory=dict)
    total: int = 0
    max_len: int = 0

    @property
    def key_dtype(self) -> str:
        return f"S{self.width * _id_dtype(len(self.vocab)).itemsize}"

    @property
    def global_counts(self) -> ItemsetCounts:
        """Counts over all transactions: the sum over consequents, as each transaction has one."""
        found = self.per_consequent.values()
        return _summed(
            np.concatenate([f.keys for f in found] or [np.empty(0, self.key_dtype)]),
            np.concatenate([f.counts for f in found] or [np.empty(0, np.int64)]),
        )

    def ids(self, keys: np.ndarray) -> np.ndarray:
        """The id rows of ``keys``, 0 past each itemset's last item."""
        return keys.view(_id_dtype(len(self.vocab))).reshape(len(keys), self.width)

    def to_json_dict(self) -> dict:
        tokens = [it.token for it in self.vocab]

        def listed(found: ItemsetCounts) -> list:
            rows = self.ids(found.keys).tolist()
            return [[[tokens[i - 1] for i in row if i], c] for row, c in zip(rows, found.counts.tolist())]

        return {
            "total": self.total,
            "max_len": self.max_len,
            "consequent_totals": dict(sorted(self.consequent_totals.items())),
            "global_counts": listed(self.global_counts),
            "per_consequent": {q: listed(found) for q, found in sorted(self.per_consequent.items())},
        }


def itemset_count_tables(transactions: list[Transaction], max_len: int) -> CountTables:
    """Count all itemsets up to max_len per consequent.

    Items are numbered by their tokens, so no item is hashed or compared
    in Python. Transactions of one consequent and width w share one id
    matrix; its C(w, k) column combinations for each k <= max_len, built
    once per call for each (w, k), give every subset key, and one
    ``_summed`` per consequent counts them, ordered by a radix sort over the
    key bytes with no byte-string compare. If the subsets of all
    transactions, Σ_{k≤max_len} C(w, k) each, number more than MAX_ITEMSETS,
    TooManyItemsets is raised before any is enumerated.
    """
    items = {it.token: it for t in transactions for it in t.items}
    tokens = sorted(items)
    widest = max((len(t.items) for t in transactions), default=0)
    tables = CountTables(vocab=[items[tok] for tok in tokens], width=max(1, min(max_len, widest)), max_len=max_len)
    index = {tok: i for i, tok in enumerate(tokens, 1)}
    groups: dict[str, dict[int, list[list[int]]]] = {}
    for t in transactions:
        tables.total += 1
        tables.consequent_totals[t.consequent] = tables.consequent_totals.get(t.consequent, 0) + 1
        by_width = groups.setdefault(t.consequent, {})
        by_width.setdefault(len(t.items), []).append(sorted([index[it.token] for it in t.items]))
    subsets = sum(
        len(rows) * sum(math.comb(w, k) for k in range(1, min(max_len, w) + 1))
        for by_width in groups.values()
        for w, rows in by_width.items()
    )
    if subsets > MAX_ITEMSETS:
        raise TooManyItemsets(subsets, MAX_ITEMSETS, widest, max_len)

    combos: dict[tuple[int, int], np.ndarray] = {}
    for q, by_width in groups.items():
        found = [np.empty(0, tables.key_dtype)]
        for w, rows in by_width.items():
            ids = np.array(rows, dtype=_id_dtype(len(tokens))).reshape(len(rows), w)
            for k in range(1, min(max_len, w) + 1):
                columns = combos.get((w, k))
                if columns is None:
                    flat = chain.from_iterable(combinations(range(w), k))
                    columns = combos[w, k] = np.fromiter(flat, np.intp, math.comb(w, k) * k).reshape(-1, k)
                found.append(_keys(ids[:, columns].reshape(-1, k), tables.width))
        tables.per_consequent[q] = _summed(np.concatenate(found))
    return tables


def merge_count_tables(tables: list[CountTables]) -> CountTables:
    """Sum count tables, renumbering each table's ids into the union vocabulary."""
    if not tables:
        raise ValueError("nothing to merge")
    max_len = tables[0].max_len
    if any(t.max_len != max_len for t in tables):
        raise ValueError("count tables enumerate different itemset sizes")
    items = {it.token: it for t in tables for it in t.vocab}
    tokens = sorted(items)
    merged = CountTables(vocab=[items[tok] for tok in tokens], width=max(t.width for t in tables), max_len=max_len)
    index = {tok: i for i, tok in enumerate(tokens, 1)}
    keys: dict[str, list[np.ndarray]] = {}
    counts: dict[str, list[np.ndarray]] = {}
    for t in tables:
        merged.total += t.total
        for q, n in t.consequent_totals.items():
            merged.consequent_totals[q] = merged.consequent_totals.get(q, 0) + n
        # ids ascend in token order in every table, so renumbering keeps rows sorted
        renumber = np.array([0] + [index[it.token] for it in t.vocab], dtype=_id_dtype(len(tokens)))
        for q, found in t.per_consequent.items():
            keys.setdefault(q, []).append(_keys(renumber[t.ids(found.keys)], merged.width))
            counts.setdefault(q, []).append(found.counts)
    for q in keys:
        merged.per_consequent[q] = _summed(np.concatenate(keys[q]), np.concatenate(counts[q]))
    return merged


def mine_from_counts(tables: CountTables, cfg: MineConfig) -> list[Fingerprint]:
    """Mine rare antecedent itemsets per consequent and emit qualifying rules.

    An itemset is a candidate for consequent q when its count among q's
    transactions lies in the band [cfg.s_min_count, ceil(s_max_fraction *
    total)]: the floor drops chance co-occurrences, the ceiling common
    patterns. Confidence denominators are global antecedent counts over all
    transactions. Output is sorted by (confidence desc, support_count desc,
    antecedent lexicographic).
    """
    if tables.total == 0:
        return []
    if tables.max_len < cfg.max_antecedent:
        raise ValueError("count tables were built with a smaller max_antecedent")
    ceiling = math.ceil(cfg.s_max_fraction * tables.total)
    rules: list[Fingerprint] = []
    for q, found in tables.per_consequent.items():
        band = (
            (found.counts >= cfg.s_min_count)
            & (found.counts <= ceiling)
            & (np.count_nonzero(tables.ids(found.keys), axis=1) <= cfg.max_antecedent)
        )
        keys, counts = found.keys[band], found.counts[band]
        # a transaction has one consequent, so an itemset's global count sums the tables
        antecedent_counts = sum(f.lookup(keys) for f in tables.per_consequent.values())
        # float64 division rounds as Python's does, so these equal the scalar ratios
        confidence = counts / antecedent_counts
        lift = confidence / (tables.consequent_totals[q] / tables.total)
        keep = (confidence >= cfg.c_min) & (lift >= cfg.lift_min)
        for ids, count, antecedent_count, conf, lft in zip(
            tables.ids(keys[keep]).tolist(),
            counts[keep].tolist(),
            antecedent_counts[keep].tolist(),
            confidence[keep].tolist(),
            lift[keep].tolist(),
        ):
            rules.append(
                Fingerprint(
                    antecedent=frozenset(tables.vocab[i - 1] for i in ids if i),
                    consequent=q,
                    support=count / tables.total,
                    support_count=count,
                    antecedent_count=antecedent_count,
                    confidence=conf,
                    lift=lft,
                )
            )
    rules.sort(key=_rule_sort_key)
    return rules


def mine_rare_rules(transactions: list[Transaction], cfg: MineConfig) -> list[Fingerprint]:
    """Mine the pooled transactions: the same computation as merged fog tables."""
    return mine_from_counts(itemset_count_tables(transactions, cfg.max_antecedent), cfg)


def _rule_sort_key(rule: Fingerprint) -> tuple:
    return (-rule.confidence, -rule.support_count, tuple(_tokens(rule.antecedent)), rule.consequent)


# ---------------------------------------------------------------------------
# Database maintenance and persistence


def update_db(
    db: FingerprintDb,
    new_rules: list[Fingerprint],
    labels: dict[tuple[Itemset, str], str] | None = None,
    built_at: int | None = None,
    transaction_total: int | None = None,
) -> FingerprintDb:
    """Fold freshly mined rules into a database.

    New rules replace old ones with the same (antecedent, consequent) key
    but inherit the old cause label; rules not re-mined stay as they are.
    ``labels`` then sets the cause label of every rule it names, new or
    retained. Pass the mining run's transaction count as
    ``transaction_total``; the stored total never shrinks, keeping the
    support_count <= transaction_total invariant across updates.
    """
    merged: dict[tuple[Itemset, str], Fingerprint] = {
        (r.antecedent, r.consequent): r for r in db.rules
    }
    for rule in new_rules:
        rule_key = (rule.antecedent, rule.consequent)
        old = merged.get(rule_key)
        merged[rule_key] = rule if old is None else replace(rule, cause_label=old.cause_label)
    for rule_key, label in (labels or {}).items():
        if rule_key in merged:
            merged[rule_key] = replace(merged[rule_key], cause_label=label)
    rules = sorted(merged.values(), key=_rule_sort_key)
    total = max(
        [db.transaction_total, transaction_total or 0] + [r.support_count for r in rules]
    )
    return FingerprintDb(
        rules=rules,
        transaction_total=total,
        built_at=db.built_at if built_at is None else built_at,
    )


@dataclass
class _RuleDoc:
    """A fingerprint as the db document stores it: its antecedent as sorted tokens."""

    antecedent: list  # checked by itemset_from_tokens
    consequent: str
    support: float
    support_count: int
    antecedent_count: int
    confidence: float
    lift: float
    cause_label: str | None = None


@dataclass
class _DbDoc:
    schema_version: int
    transaction_total: int
    built_at: int
    rules: list[_RuleDoc]


def db_to_json(db: FingerprintDb) -> str:
    rules = [_RuleDoc(**{**vars(r), "antecedent": _tokens(r.antecedent)}) for r in db.rules]
    return dumps(_DbDoc(db.schema_version, db.transaction_total, db.built_at, rules))


def save_db(db: FingerprintDb, path: str | Path) -> None:
    Path(path).write_text(db_to_json(db), encoding="utf-8")


def load_db(path: str | Path) -> FingerprintDb:
    """Load a fingerprint database; raises SchemaMismatch or CorruptDb naming the fault."""
    doc = require_object(read(path))
    if doc.get("schema_version") != DB_SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported db schema {doc.get('schema_version')!r}")
    stored = decode(_DbDoc, doc)
    rules: list[Fingerprint] = []
    seen: set[tuple[Itemset, str]] = set()
    parsed: dict[str, SymptomItem] = {}
    for i, raw in enumerate(stored.rules):
        antecedent = itemset_from_tokens(raw.antecedent, f"rules[{i}].antecedent", parsed)
        rule = Fingerprint(**{**vars(raw), "antecedent": antecedent})
        problem = _rule_problem(rule, stored.transaction_total)
        if problem is not None:
            raise CorruptDb(f"{_tokens(antecedent)} -> {rule.consequent}: {problem}")
        rule_key = (rule.antecedent, rule.consequent)
        if rule_key in seen:
            raise CorruptDb(f"duplicate rule {_tokens(antecedent)} -> {rule.consequent}")
        seen.add(rule_key)
        rules.append(rule)
    return FingerprintDb(rules=rules, transaction_total=stored.transaction_total, built_at=stored.built_at)


def _rule_problem(rule: Fingerprint, transaction_total: int) -> str | None:
    """The first invariant a loaded rule breaks, or None."""
    if not rule.antecedent:
        return "empty antecedent"
    if not 0 < rule.confidence <= 1:
        return f"confidence {rule.confidence} outside (0, 1]"
    if not 0 < rule.support <= 1:
        return f"support {rule.support} outside (0, 1]"
    if not rule.lift > 0:  # jsondoc has already refused NaN and the infinities
        return f"lift {rule.lift} must be > 0"
    if rule.support_count < 1:
        return f"support_count {rule.support_count} below 1"
    if rule.support_count > transaction_total:
        return "support_count exceeds transaction_total"
    if rule.antecedent_count < rule.support_count:
        return "antecedent_count below support_count"
    if rule.confidence != rule.support_count / rule.antecedent_count:
        return "confidence inconsistent with counts"
    return None
