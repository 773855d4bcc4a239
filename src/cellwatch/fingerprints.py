"""Fingerprint learning: symptom transactions, rare-rule mining, rule store.

A transaction is the set of KPI symptoms observed at the peak of one KQI
degradation event. Rules (antecedent symptom set -> degraded KQI) are mined
with FP-growth per consequent, then restricted to a support band
[s_min_count, ceil(s_max_fraction * N)]: the floor keeps the tree tractable,
the ceiling keeps only rare-and-diagnostic patterns out of it.

Mining is count-additive: ``itemset_count_tables`` built on partitions of
the transactions and summed reproduce the pooled tables, and
``mine_from_counts`` on the merged tables yields field-identical rules to
``mine_rare_rules`` on the pooled transactions. Both paths share the rule
construction code so even the float arithmetic matches.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import combinations
from pathlib import Path
from typing import Any

import numpy as np

from .baseline import BaselineModel, Direction, hour_bucket, robust_score
from .errors import CorruptDb, SchemaMismatch, UnknownKey
from .ingest import MetricKind, MetricSeries
from .jsondoc import decode, require_object
from .postfilter import AnomalyEvent

log = logging.getLogger(__name__)

DB_SCHEMA_VERSION = 1


class SymptomState(str, Enum):
    HIGH = "HIGH"
    LOW = "LOW"


@dataclass(frozen=True, order=True)
class SymptomItem:
    metric_name: str
    state: SymptomState

    @property
    def token(self) -> str:
        return f"{self.metric_name}={self.state.value}"

    @classmethod
    def from_token(cls, token: str) -> "SymptomItem":
        name, _, state = token.rpartition("=")
        if not name:
            raise ValueError(f"bad symptom token {token!r}")
        return cls(name, SymptomState(state))


Itemset = frozenset[SymptomItem]


def _tokens(items: Itemset) -> list[str]:
    return sorted(it.token for it in items)


def itemset_from_tokens(tokens: list[str], where: str) -> Itemset:
    """The itemset of ``metric=STATE`` tokens; SchemaMismatch naming ``where`` if one is bad."""
    try:
        return frozenset(SymptomItem.from_token(t) for t in tokens)
    except (AttributeError, ValueError):
        raise SchemaMismatch(f"{where}: bad symptom tokens {tokens}") from None


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
        if self.lift_min <= 0:
            raise ValueError("lift_min must be > 0")
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


def empty_db() -> FingerprintDb:
    return FingerprintDb(rules=[], transaction_total=0)


def _value_at(series: MetricSeries, window_start: int) -> float | None:
    """The series value at one window, or None when absent or MISSING."""
    i = int(np.searchsorted(series.window_starts, window_start))
    if i == len(series.window_starts) or series.window_starts[i] != window_start:
        return None
    value = float(series.values[i])
    return None if math.isnan(value) else value


def build_transactions(
    events: list[AnomalyEvent],
    kpi_series: list[MetricSeries],
    model: BaselineModel,
    z_symptom: float = 3.0,
) -> list[Transaction]:
    """One transaction per event: the cell's KPI symptoms at the peak window.

    A KPI contributes (kpi, HIGH) when its value at the event's peak window
    scores >= z_symptom above its baseline median, (kpi, LOW) when below.
    A cell with no KPI data at that window yields an empty transaction and a
    warning; that is diagnostic-data loss, not a fatal condition.
    """
    if z_symptom <= 0:
        raise ValueError("z_symptom must be > 0")
    by_key: dict[tuple[str, str], MetricSeries] = {}
    kpis_by_cell: dict[str, list[str]] = {}
    for s in kpi_series:
        if s.kind != MetricKind.KPI:
            continue
        by_key[(s.cell_id, s.metric_name)] = s
        kpis_by_cell.setdefault(s.cell_id, []).append(s.metric_name)

    transactions: list[Transaction] = []
    for event in events:
        items: set[SymptomItem] = set()
        saw_value = False
        for kpi in sorted(kpis_by_cell.get(event.cell_id, [])):
            value = _value_at(by_key[(event.cell_id, kpi)], event.peak_window)
            if value is None:
                continue
            saw_value = True
            key = (event.cell_id, kpi, hour_bucket(event.peak_window))
            try:
                sc = robust_score(model, key, value)
            except UnknownKey:
                log.debug("no baseline for %s, skipping symptom", key)
                continue
            if sc.score >= z_symptom and sc.direction == Direction.UP:
                items.add(SymptomItem(kpi, SymptomState.HIGH))
            elif sc.score >= z_symptom and sc.direction == Direction.DOWN:
                items.add(SymptomItem(kpi, SymptomState.LOW))
        if not saw_value:
            log.warning(
                "cell %s has no KPI data at window %s; emitting empty transaction",
                event.cell_id,
                event.peak_window,
            )
        transactions.append(
            Transaction(
                items=frozenset(items),
                consequent=event.metric_name,
                key=(event.cell_id, event.peak_window),
            )
        )
    return transactions


# ---------------------------------------------------------------------------
# FP-growth


class _FPNode:
    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item: SymptomItem | None, parent: "_FPNode | None"):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[SymptomItem, _FPNode] = {}


def _fp_mine(
    itemlists: list[tuple[list[SymptomItem], int]],
    min_count: int,
    max_len: int,
    rank: dict[SymptomItem, int],
    suffix: Itemset,
    out: dict[Itemset, int],
) -> None:
    """Recursive FP-growth over (ordered item list, multiplicity) pairs."""
    root = _FPNode(None, None)
    header: dict[SymptomItem, list[_FPNode]] = {}
    for items, count in itemlists:
        node = root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item, node)
                node.children[item] = child
                header.setdefault(item, []).append(child)
            child.count += count
            node = child

    # mine least-frequent items first (standard suffix growth)
    for item in sorted(header, key=lambda it: rank[it], reverse=True):
        support = sum(n.count for n in header[item])
        if support < min_count:
            continue
        itemset = frozenset(suffix | {item})
        out[itemset] = support
        if len(itemset) >= max_len:
            continue
        conditional: list[tuple[list[SymptomItem], int]] = []
        path_freq: Counter = Counter()
        for node in header[item]:
            path: list[SymptomItem] = []
            p = node.parent
            while p is not None and p.item is not None:
                path.append(p.item)
                p = p.parent
            if path:
                path.reverse()
                conditional.append((path, node.count))
                for it in path:
                    path_freq[it] += node.count
        pruned = [
            ([it for it in path if path_freq[it] >= min_count], count)
            for path, count in conditional
        ]
        pruned = [(path, count) for path, count in pruned if path]
        if pruned:
            _fp_mine(pruned, min_count, max_len, rank, itemset, out)


def _global_item_rank(transactions: list[Transaction]) -> dict[SymptomItem, int]:
    """Item order for tree construction: frequency desc, ties lexicographic."""
    freq: Counter = Counter()
    for t in transactions:
        freq.update(t.items)
    ordered = sorted(freq, key=lambda it: (-freq[it], it.token))
    return {item: i for i, item in enumerate(ordered)}


def mine_rare_rules(transactions: list[Transaction], cfg: MineConfig) -> list[Fingerprint]:
    """Mine rare antecedent itemsets per consequent and emit qualifying rules.

    One FP-tree per distinct consequent enumerates itemsets with support
    count >= cfg.s_min_count among that consequent's transactions; the
    rarity ceiling ceil(s_max_fraction * len(transactions)) then discards
    common patterns. Confidence denominators are global antecedent counts
    over all transactions. Output is sorted by (confidence desc,
    support_count desc, antecedent lexicographic).
    """
    if not transactions:
        return []
    total = len(transactions)
    ceiling = math.ceil(cfg.s_max_fraction * total)
    rank = _global_item_rank(transactions)

    by_consequent: dict[str, list[Itemset]] = {}
    for t in transactions:
        by_consequent.setdefault(t.consequent, []).append(t.items)
    consequent_totals = {q: len(lst) for q, lst in by_consequent.items()}

    per_consequent: dict[str, dict[Itemset, int]] = {}
    for q in sorted(by_consequent):
        itemlists = [
            (sorted(items, key=lambda it: rank[it]), 1)
            for items in by_consequent[q]
            if items
        ]
        found: dict[Itemset, int] = {}
        if itemlists:
            _fp_mine(itemlists, cfg.s_min_count, cfg.max_antecedent, rank, frozenset(), found)
        per_consequent[q] = {A: c for A, c in found.items() if c <= ceiling}

    candidates: set[Itemset] = set()
    for found in per_consequent.values():
        candidates.update(found)
    global_counts = {A: sum(1 for t in transactions if A <= t.items) for A in candidates}
    return _build_rules(per_consequent, global_counts, consequent_totals, total, cfg)


def _rule_sort_key(rule: Fingerprint) -> tuple:
    return (-rule.confidence, -rule.support_count, tuple(_tokens(rule.antecedent)), rule.consequent)


def _build_rules(
    per_consequent: dict[str, dict[Itemset, int]],
    global_counts: dict[Itemset, int],
    consequent_totals: dict[str, int],
    total: int,
    cfg: MineConfig,
) -> list[Fingerprint]:
    """Shared rule construction so all mining paths agree bit-for-bit."""
    rules: list[Fingerprint] = []
    for q in sorted(per_consequent):
        consequent_support = consequent_totals[q] / total
        for antecedent, count in per_consequent[q].items():
            antecedent_count = global_counts[antecedent]
            confidence = count / antecedent_count
            if confidence < cfg.c_min:
                continue
            lift = confidence / consequent_support
            if lift < cfg.lift_min:
                continue
            rules.append(
                Fingerprint(
                    antecedent=antecedent,
                    consequent=q,
                    support=count / total,
                    support_count=count,
                    antecedent_count=antecedent_count,
                    confidence=confidence,
                    lift=lift,
                )
            )
    rules.sort(key=_rule_sort_key)
    return rules


# ---------------------------------------------------------------------------
# Count-table path (the distributed route)


@dataclass
class CountTables:
    """Additive itemset counts; summing partition tables gives pooled tables.

    Tables enumerate every itemset of size 1..max_len present in any
    transaction (count floor 1), so merged tables lose nothing that a pooled
    mining run could see.
    """

    per_consequent: dict[str, dict[Itemset, int]] = field(default_factory=dict)
    global_counts: dict[Itemset, int] = field(default_factory=dict)
    consequent_totals: dict[str, int] = field(default_factory=dict)
    total: int = 0
    max_len: int = 0

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "max_len": self.max_len,
            "consequent_totals": dict(sorted(self.consequent_totals.items())),
            "global_counts": [
                [_tokens(A), c] for A, c in sorted(self.global_counts.items(), key=lambda e: _tokens(e[0]))
            ],
            "per_consequent": {
                q: [[_tokens(A), c] for A, c in sorted(found.items(), key=lambda e: _tokens(e[0]))]
                for q, found in sorted(self.per_consequent.items())
            },
        }


def itemset_count_tables(transactions: list[Transaction], max_len: int) -> CountTables:
    """Count all itemsets up to max_len, per consequent and globally."""
    tables = CountTables(max_len=max_len)
    for t in transactions:
        tables.total += 1
        tables.consequent_totals[t.consequent] = tables.consequent_totals.get(t.consequent, 0) + 1
        found = tables.per_consequent.setdefault(t.consequent, {})
        items = sorted(t.items)
        for size in range(1, min(max_len, len(items)) + 1):
            for combo in combinations(items, size):
                A = frozenset(combo)
                found[A] = found.get(A, 0) + 1
                tables.global_counts[A] = tables.global_counts.get(A, 0) + 1
    return tables


def merge_count_tables(tables: list[CountTables]) -> CountTables:
    if not tables:
        raise ValueError("nothing to merge")
    max_len = tables[0].max_len
    if any(t.max_len != max_len for t in tables):
        raise ValueError("count tables enumerate different itemset sizes")
    merged = CountTables(max_len=max_len)
    for t in tables:
        merged.total += t.total
        for q, n in t.consequent_totals.items():
            merged.consequent_totals[q] = merged.consequent_totals.get(q, 0) + n
        for A, c in t.global_counts.items():
            merged.global_counts[A] = merged.global_counts.get(A, 0) + c
        for q, found in t.per_consequent.items():
            into = merged.per_consequent.setdefault(q, {})
            for A, c in found.items():
                into[A] = into.get(A, 0) + c
    return merged


def mine_from_counts(tables: CountTables, cfg: MineConfig) -> list[Fingerprint]:
    """Rule mining over (merged) count tables; matches mine_rare_rules exactly."""
    if tables.total == 0:
        return []
    if tables.max_len < cfg.max_antecedent:
        raise ValueError("count tables were built with a smaller max_antecedent")
    ceiling = math.ceil(cfg.s_max_fraction * tables.total)
    per_consequent = {
        q: {
            A: c
            for A, c in found.items()
            if cfg.s_min_count <= c <= ceiling and len(A) <= cfg.max_antecedent
        }
        for q, found in tables.per_consequent.items()
    }
    return _build_rules(
        per_consequent, tables.global_counts, tables.consequent_totals, tables.total, cfg
    )


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
    but inherit the old cause label unless ``labels`` provides one. Rules
    not re-mined stay untouched. Pass the mining run's transaction count as
    ``transaction_total``; the stored total never shrinks, keeping the
    support_count <= transaction_total invariant across updates.
    """
    labels = labels or {}
    merged: dict[tuple[Itemset, str], Fingerprint] = {
        (r.antecedent, r.consequent): r for r in db.rules
    }
    for rule in new_rules:
        rule_key = (rule.antecedent, rule.consequent)
        old = merged.get(rule_key)
        label = labels.get(rule_key)
        if label is None:
            label = old.cause_label if old is not None else rule.cause_label
        merged[rule_key] = replace(rule, cause_label=label)
    # apply labels to retained rules as well
    for rule_key, rule in merged.items():
        label = labels.get(rule_key)
        if label is not None and rule.cause_label != label:
            merged[rule_key] = replace(rule, cause_label=label)
    rules = sorted(merged.values(), key=_rule_sort_key)
    total = max(
        [db.transaction_total, transaction_total or 0] + [r.support_count for r in rules]
    )
    return FingerprintDb(
        rules=rules,
        transaction_total=total,
        built_at=db.built_at if built_at is None else built_at,
    )


def db_to_json(db: FingerprintDb) -> str:
    doc = {
        "schema_version": db.schema_version,
        "transaction_total": db.transaction_total,
        "built_at": db.built_at,
        "rules": [
            {
                "antecedent": _tokens(r.antecedent),
                "consequent": r.consequent,
                "support": r.support,
                "support_count": r.support_count,
                "antecedent_count": r.antecedent_count,
                "confidence": r.confidence,
                "lift": r.lift,
                "cause_label": r.cause_label,
            }
            for r in db.rules
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_db(db: FingerprintDb, path: str | Path) -> None:
    Path(path).write_text(db_to_json(db), encoding="utf-8")


# The keys of a db document and of each of its rules, with the Python types
# json.load gives their values. A jsondoc.decode per rule would take several
# times as long as these checks.
_DB_TYPES = {"schema_version": (int,), "transaction_total": (int,), "built_at": (int,),
             "rules": (list,)}
_RULE_TYPES = {"antecedent": (list,), "consequent": (str,), "support": (float, int),
               "support_count": (int,), "antecedent_count": (int,), "confidence": (float, int),
               "lift": (float, int), "cause_label": (str, type(None))}


def _typed(doc: Any, types: dict[str, tuple[type, ...]], where: str) -> dict:
    """``doc`` if it has these keys of these types (None: may be missing), else SchemaMismatch."""
    prefix = f"{where}." if where else ""
    for key in require_object(doc, where).keys() - types.keys():
        raise SchemaMismatch(f"{prefix}{key}: unknown key")
    for key, allowed in types.items():
        if type(doc.get(key)) not in allowed:
            if key not in doc:
                raise SchemaMismatch(f"{prefix}{key}: missing required key")
            decode(allowed[0], doc[key], prefix + key)  # raises, naming the JSON types
    return doc


def load_db(path: str | Path) -> FingerprintDb:
    """Load a fingerprint database; raises SchemaMismatch or CorruptDb naming the fault."""
    with open(path, encoding="utf-8") as fh:
        doc = require_object(json.load(fh))
    if doc.get("schema_version") != DB_SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported db schema {doc.get('schema_version')!r}")
    total = _typed(doc, _DB_TYPES, "")["transaction_total"]
    rules: list[Fingerprint] = []
    seen: set[tuple[Itemset, str]] = set()
    for i, raw in enumerate(doc["rules"]):
        tokens = _typed(raw, _RULE_TYPES, f"rules[{i}]")["antecedent"]
        antecedent = itemset_from_tokens(tokens, f"rules[{i}].antecedent")
        rule = Fingerprint(
            antecedent=antecedent,
            consequent=raw["consequent"],
            support=raw["support"],
            support_count=raw["support_count"],
            antecedent_count=raw["antecedent_count"],
            confidence=raw["confidence"],
            lift=raw["lift"],
            cause_label=raw.get("cause_label"),
        )
        _validate_rule(rule, total)
        rule_key = (rule.antecedent, rule.consequent)
        if rule_key in seen:
            raise CorruptDb(f"duplicate rule {_tokens(antecedent)} -> {rule.consequent}")
        seen.add(rule_key)
        rules.append(rule)
    return FingerprintDb(rules=rules, transaction_total=total, built_at=doc["built_at"])


def _validate_rule(rule: Fingerprint, transaction_total: int) -> None:
    name = f"{_tokens(rule.antecedent)} -> {rule.consequent}"
    if not rule.antecedent:
        raise CorruptDb(f"{name}: empty antecedent")
    if not 0 < rule.confidence <= 1:
        raise CorruptDb(f"{name}: confidence {rule.confidence} outside (0, 1]")
    if not 0 < rule.support <= 1:
        raise CorruptDb(f"{name}: support {rule.support} outside (0, 1]")
    if rule.lift <= 0:
        raise CorruptDb(f"{name}: lift {rule.lift} must be > 0")
    if rule.support_count > transaction_total:
        raise CorruptDb(f"{name}: support_count exceeds transaction_total")
    if rule.antecedent_count and rule.confidence != rule.support_count / rule.antecedent_count:
        raise CorruptDb(f"{name}: confidence inconsistent with counts")
