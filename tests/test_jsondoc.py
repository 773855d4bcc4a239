import re

import pytest

from cellwatch.baseline import DetectorConfig
from cellwatch.cli import _DiagnosisLine
from cellwatch.errors import SchemaMismatch
from cellwatch.fingerprints import SymptomState, _DbDoc
from cellwatch.ingest import MetricInfo, MetricKind, Polarity
from cellwatch.jsondoc import decode, encode, require_object
from cellwatch.synth import AutoPlan, CauseSpec, CdrTraffic, MetricSpec, PlantedAnomaly, ScenarioSpec

METRIC = {
    "kind": "KQI",
    "polarity": "HIGHER_IS_WORSE",
    "base_level": 10,
    "diurnal_amplitude": 1.0,
    "sigma": 0.5,
    "value_range": [0, 20.5],
}


def spec_doc(**changes):
    doc = {"n_cells": 2, "days": 1, "window_len": 900, "seed": 7, "metrics": {"m": dict(METRIC)}}
    doc.update(changes)
    return doc


class TestDecode:
    def test_float_fields_take_json_ints(self):
        metric = decode(MetricSpec, METRIC)
        assert metric == MetricSpec(MetricKind.KQI, Polarity.HIGHER_IS_WORSE, 10.0, 1.0, 0.5, (0.0, 20.5))
        assert type(metric.base_level) is float and type(metric.value_range[0]) is float

    def test_missing_fields_take_dataclass_defaults(self):
        spec = decode(ScenarioSpec, spec_doc())
        assert spec.days == 1.0 and type(spec.days) is float
        assert spec.causes == [] and spec.anomalies == []
        assert spec.cdr == CdrTraffic() and spec.train_fraction == 0.7
        assert decode(DetectorConfig, {}) == DetectorConfig()

    def test_union_is_picked_by_json_shape(self):
        plan = decode(ScenarioSpec, spec_doc(anomalies={"count": 3})).anomalies
        assert plan == AutoPlan(count=3)
        planted = {"cell_id": "cell-001", "metric": "m", "start_window": 900, "n_windows": 2, "magnitude": 8}
        listed = decode(ScenarioSpec, spec_doc(anomalies=[planted])).anomalies
        assert listed == [PlantedAnomaly("cell-001", "m", 900, 2, 8.0)]

    def test_optional_takes_null_or_its_type(self):
        assert decode(DetectorConfig, {"bounds": None}).bounds is None
        assert decode(DetectorConfig, {"bounds": {"m": [0, 1]}}).bounds == {"m": (0.0, 1.0)}

    def test_enums_read_by_value(self):
        cause = decode(CauseSpec, {"label": "x", "pattern": {"a": "LOW"}, "kqi": "m"})
        assert cause.pattern == {"a": SymptomState.LOW} and cause.symptom_magnitude == 8.0

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "document: expected an object, got an array"),
            (spec_doc(misssing_rate=0.1), "misssing_rate: unknown key"),
            (spec_doc(cdr={"drop_prb": 0.1}), "cdr.drop_prb: unknown key"),
            ({"n_cells": 2, "days": 1, "window_len": 900, "metrics": {}}, "seed: missing required key"),
            (spec_doc(n_cells=2.0), "n_cells: expected an integer, got a number"),
            (spec_doc(n_cells=True), "n_cells: expected an integer, got a boolean"),
            (spec_doc(days=True), "days: expected a number, got a boolean"),
            (spec_doc(days="1"), "days: expected a number, got a string"),
            (spec_doc(metrics=[]), "metrics: expected an object, got an array"),
            (spec_doc(metrics={"m": {**METRIC, "kind": "kqi"}}), "metrics.m.kind: expected one of"),
            (
                spec_doc(metrics={"m": {**METRIC, "value_range": [1.0]}}),
                "metrics.m.value_range: expected an array of 2 values, got an array",
            ),
            (
                spec_doc(metrics={"m": {**METRIC, "sigma": None}}),
                "metrics.m.sigma: expected a number, got null",
            ),
            (spec_doc(anomalies="auto"), "anomalies: expected an array or an object, got a string"),
            (spec_doc(anomalies=[{"cell_id": "c"}]), "anomalies[0].metric: missing required key"),
            (
                spec_doc(causes=[{"label": 1, "pattern": {}, "kqi": "m"}]),
                "causes[0].label: expected a string, got an integer",
            ),
        ],
    )
    def test_malformed_documents_name_the_key_path(self, doc, message):
        with pytest.raises(SchemaMismatch, match="^" + re.escape(message)):
            decode(ScenarioSpec, doc)

    def test_where_prefixes_every_path(self):
        with pytest.raises(SchemaMismatch, match=r"^mine\.c_mn: unknown key$"):
            decode(DetectorConfig, {"c_mn": 1}, "mine")
        with pytest.raises(SchemaMismatch, match=r"^spec: expected an object, got an integer$"):
            require_object(3, "spec")

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "1e400"]
    )
    def test_non_finite_numbers_name_the_key(self, value):
        got = "an integer beyond the float range" if type(value) is int else repr(value)
        with pytest.raises(SchemaMismatch, match=f"^days: expected a finite number, got {got}$"):
            decode(ScenarioSpec, spec_doc(days=value))
        with pytest.raises(SchemaMismatch, match=r"^m\.value_range\[1\]: expected a finite number"):
            decode(MetricInfo, {"kind": "KQI", "polarity": "HIGHER_IS_WORSE", "window_len_seconds": 300,
                                "value_range": [0, value]}, "m")

    def test_range_checks_stay_in_the_dataclass(self):
        with pytest.raises(ValueError, match="tau must be > 0"):
            decode(DetectorConfig, {"tau": -1})


def test_encode_is_the_inverse_of_decode():
    spec = decode(ScenarioSpec, spec_doc(causes=[{"label": "x", "pattern": {"a": "HIGH"}, "kqi": "m"}]))
    doc = encode(spec)
    assert doc["metrics"]["m"]["value_range"] == [0.0, 20.5]
    assert doc["causes"][0]["pattern"] == {"a": "HIGH"}
    assert decode(ScenarioSpec, doc) == spec
    rule = {"antecedent": ["a=HIGH", "b=LOW"], "consequent": "q", "support": 0.25, "support_count": 3,
            "antecedent_count": 3, "confidence": 1.0, "lift": 4.0, "cause_label": None}
    db = {"schema_version": 1, "transaction_total": 12, "built_at": 900, "rules": [rule]}
    event = {"cell_id": "c", "metric": "q", "start_window": 0, "end_window": 900, "peak_score": 7.5,
             "peak_window": 900, "direction": "UP"}
    ranked = {"cause": "UNLABELED", "distance": 0.5, "antecedent": ["a=HIGH"], "confidence": 1.0,
              "support_count": 3}
    line = {"event": event, "items": ["a=HIGH", "c=LOW"], "consequent": "q", "matched": True,
            "match_threshold": 0.5, "ranked": [ranked]}
    for cls, doc in [(_DbDoc, db), (_DiagnosisLine, line)]:
        obj = decode(cls, doc)
        assert encode(obj) == doc and decode(cls, encode(obj)) == obj


def test_field_metadata_sets_the_json_key():
    doc = {"kind": "KPI", "polarity": "LOWER_IS_WORSE", "window_len_seconds": 300}
    info = decode(MetricInfo, doc)
    assert info.window_len == 300
    assert encode(info) == {**doc, "value_range": None}
    with pytest.raises(SchemaMismatch, match=r"^window_len: unknown key$"):
        decode(MetricInfo, {**doc, "window_len": 300})
    with pytest.raises(SchemaMismatch, match=r"^m\.window_len_seconds: expected an integer, got a number$"):
        decode(MetricInfo, {**doc, "window_len_seconds": 300.0}, "m")
