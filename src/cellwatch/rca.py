"""Root-cause diagnosis: nearest-fingerprint matching over symptom sets.

Candidates are restricted to fingerprints whose consequent equals the
degraded KQI actually observed; a diagnosis has to explain the event it is
attached to. Distance is Jaccard on symptom sets, and the ranking order is
total: (distance, confidence desc, support desc, antecedent), so results
never depend on database ordering.

``diagnose`` ranks against an index built once per database, on its first
call, and cached on the db. The index numbers every antecedent item of the
db as one bit and buckets the rules by consequent; each bucket holds its
rules' antecedents as int bitmasks with their sizes, already in the static
tie-break order (confidence desc, support desc, antecedent). A call encodes
the symptom set as a mask (items the db never mentions set no bit but still
count in its size), takes ``inter = popcount(mask & query)`` and ``union =
|antecedent| + |query| - inter`` per candidate, which is the same IEEE
division of the same integers as ``jaccard_distance``, and keeps the k
smallest by (distance, bucket position) with a heap. That is the same
total order as sorting every candidate, at O(candidates) integer operations
per call after an O(rules) build. The index is rebuilt when ``db.rules`` is
replaced by another list or changes length.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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
    """The rules of one consequent in tie-break order, with antecedent masks and sizes."""

    rules: list[Fingerprint]
    masks: list[int]
    sizes: list[int]


@dataclass
class _Index:
    rules: list[Fingerprint]  # the db.rules list this index was built from
    rule_count: int
    bits: dict[SymptomItem, int]  # item -> its one-bit mask
    buckets: dict[str, _Bucket]


def _build_index(rules: list[Fingerprint]) -> _Index:
    bits: dict[SymptomItem, int] = {}
    buckets: dict[str, _Bucket] = {}
    # a stable sort: within one consequent the key is (-confidence,
    # -support_count, tokens) and equal rules keep their db order
    for rule in sorted(rules, key=_rule_sort_key):
        mask = 0
        for item in rule.antecedent:
            mask |= bits.setdefault(item, 1 << len(bits))
        bucket = buckets.setdefault(rule.consequent, _Bucket([], [], []))
        bucket.rules.append(rule)
        bucket.masks.append(mask)
        bucket.sizes.append(len(rule.antecedent))
    return _Index(rules, len(rules), bits, buckets)


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
        query = 0
        for item in symptoms.items:
            query |= index.bits.get(item, 0)
        query_size = len(symptoms.items)
        distances = []
        for mask, size in zip(bucket.masks, bucket.sizes):
            inter = (mask & query).bit_count()
            union = size + query_size - inter
            distances.append(0.0 if union == 0 else 1.0 - inter / union)
        # nsmallest breaks key ties by input order, so this ranks by (distance, position)
        for position in heapq.nsmallest(k, range(len(distances)), key=distances.__getitem__):
            rule = bucket.rules[position]
            ranked.append(RankedCause(rule.cause_label, distances[position], rule))
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
