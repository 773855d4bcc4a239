"""Root-cause diagnosis: nearest-fingerprint matching over symptom sets.

Candidates are restricted to fingerprints whose consequent equals the
degraded KQI actually observed; a diagnosis has to explain the event it is
attached to. Distance is Jaccard on symptom sets, and the ranking order is
total: (distance, confidence desc, support desc, antecedent), so results
never depend on database ordering.

``diagnose`` ranks against an index built once per database, on its first
call, and cached on the db. The index buckets the rules by consequent, in
the static tie-break order (confidence desc, support desc, antecedent). A
bucket holds postings (for each antecedent item, the positions of the rules
that hold it) and an int64 array of antecedent sizes. A call counts the
concatenated postings of the query's items with ``np.bincount``, which is
``inter`` for every candidate (an item the bucket never mentions selects no
posting but still counts in ``|query|``), and takes ``union = |antecedent|
+ |query| - inter`` and ``1 - inter / union``. A non-empty query makes
``union >= |query| >= 1``, so the division needs no mask; an empty query is
at distance 0 from an empty antecedent and 1 from any other, as
``jaccard_distance`` says. int64 converts to float64 exactly, so that is the
same IEEE division of the same integers as ``jaccard_distance``. A stable
argsort then ranks by (distance, position), the same total order as sorting
every candidate. The index is rebuilt when ``db.rules`` is replaced by
another list or changes length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baseline import BaselineModel
from .fingerprints import (
    Fingerprint,
    FingerprintDb,
    SymptomItem,
    _rule_sort_key,
    _tokens,
    build_transactions,
)
from .ingest import MetricSeries
from .jsondoc import encode
from .postfilter import AnomalyEvent

UNLABELED = "UNLABELED"


@dataclass
class SymptomSet:
    items: frozenset[SymptomItem]
    consequent: str
    event: AnomalyEvent


@dataclass
class RankedCause:
    cause_label: str | None
    distance: float
    fingerprint: Fingerprint


@dataclass
class RankedDoc:
    """A ranked cause as a diagnoses line stores it; a rule without a label reads UNLABELED."""

    cause: str
    distance: float
    antecedent: list[str]
    confidence: float
    support_count: int


@dataclass
class DiagnosisDoc:
    """A diagnosis as a diagnoses line stores it."""

    matched: bool
    match_threshold: float
    ranked: list[RankedDoc]


@dataclass
class Diagnosis:
    ranked: list[RankedCause]
    matched: bool
    match_threshold: float

    def to_doc(self) -> DiagnosisDoc:
        ranked = [
            RankedDoc(UNLABELED if r.cause_label is None else r.cause_label, r.distance,
                      _tokens(r.fingerprint.antecedent), r.fingerprint.confidence, r.fingerprint.support_count)
            for r in self.ranked
        ]
        return DiagnosisDoc(self.matched, self.match_threshold, ranked)

    def to_json_dict(self) -> dict:
        return encode(self.to_doc())


def jaccard_distance(a: frozenset[SymptomItem], b: frozenset[SymptomItem]) -> float:
    """1 - |a & b| / |a | b|; two empty sets are at distance 0."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


@dataclass
class _Bucket:
    """The rules of one consequent in tie-break order, as item postings and antecedent sizes."""

    rules: list[Fingerprint]
    postings: dict[SymptomItem, np.ndarray]  # item -> positions of the rules holding it (intp)
    sizes: np.ndarray  # int64 antecedent sizes


@dataclass
class _Index:
    rules: list[Fingerprint]  # the db.rules list this index was built from
    rule_count: int
    buckets: dict[str, _Bucket]


_NO_RULES = np.empty(0, dtype=np.intp)


def _build_bucket(rules: list[Fingerprint]) -> _Bucket:
    positions: dict[SymptomItem, list[int]] = {}
    for position, rule in enumerate(rules):
        for item in rule.antecedent:
            positions.setdefault(item, []).append(position)
    postings = {item: np.array(p, dtype=np.intp) for item, p in positions.items()}
    return _Bucket(rules, postings, np.array([len(r.antecedent) for r in rules], dtype=np.int64))


def _build_index(rules: list[Fingerprint]) -> _Index:
    by_consequent: dict[str, list[Fingerprint]] = {}
    # a stable sort: within one consequent the key is (-confidence,
    # -support_count, tokens) and equal rules keep their db order
    for rule in sorted(rules, key=_rule_sort_key):
        by_consequent.setdefault(rule.consequent, []).append(rule)
    buckets = {consequent: _build_bucket(members) for consequent, members in by_consequent.items()}
    return _Index(rules, len(rules), buckets)


def diagnose(
    db: FingerprintDb,
    symptoms: SymptomSet,
    k: int = 3,
    match_threshold: float = 0.5,
) -> Diagnosis:
    """Rank the k nearest fingerprints for the symptom set's consequent.

    ``matched`` is true when the nearest candidate is within
    ``match_threshold``; an unmatched diagnosis marks the event as a
    candidate for fresh fingerprint learning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= match_threshold <= 1:
        raise ValueError("match_threshold must be in [0, 1]")
    index = db._index
    if index is None or index.rules is not db.rules or index.rule_count != len(db.rules):
        index = db._index = _build_index(db.rules)
    bucket = index.buckets.get(symptoms.consequent)
    ranked: list[RankedCause] = []
    if bucket is not None:
        if symptoms.items:
            hits = [bucket.postings.get(item, _NO_RULES) for item in symptoms.items]
            inter = np.bincount(np.concatenate(hits), minlength=len(bucket.rules))
            # union >= |query| >= 1
            distances = 1.0 - inter / (bucket.sizes + len(symptoms.items) - inter)
        else:
            # an empty query is at distance 0 from an empty antecedent and 1 from any other
            distances = (bucket.sizes != 0).astype(np.float64)
        # a stable sort breaks distance ties by position, so this ranks by (distance, position)
        top = np.argsort(distances, kind="stable")[:k]
        for position, distance in zip(top.tolist(), distances[top].tolist()):
            rule = bucket.rules[position]
            ranked.append(RankedCause(rule.cause_label, distance, rule))
    matched = bool(ranked) and ranked[0].distance <= match_threshold
    return Diagnosis(ranked=ranked, matched=matched, match_threshold=match_threshold)


def symptom_sets_for_events(
    events: list[AnomalyEvent],
    kpi_series: list[MetricSeries],
    model: BaselineModel,
    z_symptom: float = 3.0,
) -> list[SymptomSet]:
    """Extract per-event symptom sets the same way the miner builds transactions."""
    transactions = build_transactions(events, kpi_series, model, z_symptom)
    return [
        SymptomSet(items=t.items, consequent=t.consequent, event=event)
        for event, t in zip(events, transactions)
    ]
