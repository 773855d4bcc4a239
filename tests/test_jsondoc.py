import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellwatch import cleaning, fingerprints, fogsim, synth
from cellwatch.baseline import DetectorConfig
from cellwatch.cli import _DiagnosisLine
from cellwatch.errors import SchemaMismatch
from cellwatch.fingerprints import SymptomState, _DbDoc
from cellwatch.ingest import MetricInfo, MetricKind, Polarity
from cellwatch.jsondoc import decode, dumps, encode, require_object
from cellwatch.synth import AutoPlan, CauseSpec, CdrTraffic, MetricSpec, PlantedAnomaly, ScenarioSpec
from helpers import make_series, random_transactions, tailed, tiny_scenario

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


def stdlib_dumps(obj):
    """The oracle of ``dumps``: the encoded tree through the stdlib's indenting encoder."""
    return json.dumps(encode(obj), indent=2, sort_keys=True) + "\n"


class Shade(str, Enum):
    DARK = "dark"
    ODD = 'q"\\\u00e9\U0001f600'


class Plain(Enum):
    ONE = 1


class Wrapped(Enum):
    """An Enum whose value ``encode`` leaves as it is, so ``json`` meets ``Plain.ONE`` and rejects it."""

    PLAIN = (Plain.ONE,)


@dataclass
class Pair:
    left: Any
    right: Any = field(default=None, metadata={"json": "Right \\ \"key\""})


@dataclass
class Holder:
    inner: Any = field(metadata={"json": "\u00e9l\u00e8ve"})
    rest: Any = None
    empty: list = field(default_factory=list)


LEAVES = [
    True, False, 0, 1, -1, 2**70, -(2**70), 0.0, -0.0, 5e-324, 1e16, 1e-5, 1.5, -2.25e300,
    float("nan"), float("inf"), float("-inf"), np.float64(0.1), np.float64(-0.0), np.float64("nan"), None,
    Shade.DARK, Shade.ODD, "", 'a "quoted" \\ back\nslash\t\x00\x1f\x7f', "caf\u00e9 \u2028 \U0001f600",
]
STRINGS = st.text(alphabet=st.sampled_from(['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "a", "Z", "\u00e9",
                                            "\u2028", "\ud7ff", "\U0001f600", "\U0010ffff"]))
SCALARS = st.one_of(st.sampled_from(LEAVES), st.integers(), st.floats(), STRINGS, st.booleans())
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.builds(Pair, children, children),
        st.builds(Holder, children, children, st.lists(children, max_size=2)),
        st.dictionaries(STRINGS, children, max_size=4),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
    ),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(TREES)
    def test_equals_the_stdlib_indented_encoder(self, obj):
        assert dumps(obj) == stdlib_dumps(obj)

    @pytest.mark.parametrize(
        "obj", LEAVES + [Plain.ONE, [], {}, (), [[], {}, [()]], {"a": {"b": []}}, Pair([], {}), Holder({}, ())]
    )
    def test_leaves_and_empty_containers(self, obj):
        assert dumps(obj) == stdlib_dumps(obj)

    @pytest.mark.parametrize("obj", [{2: "a", 10: "b"}, {1.5: 0, -0.0: 1}, {None: 1}, {True: 1, False: 0}])
    def test_scalar_keys_are_written_as_json_writes_them(self, obj):
        assert dumps(obj) == stdlib_dumps(obj)

    @pytest.mark.parametrize(
        "obj",
        [np.int64(3), [np.int64(3)], Pair(np.bool_(True)), {"a": object()}, {("a",): 1}, {"a": 1, 2: "b"},
         Holder(Shade, None), [Wrapped.PLAIN]],
        ids=["int64", "int64-in-list", "numpy-bool", "object", "tuple-key", "mixed-keys", "enum-class",
             "enum-in-value"],
    )
    def test_values_json_rejects_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            stdlib_dumps(obj)
        with pytest.raises(TypeError):
            dumps(obj)

    def test_the_stdlib_encoder_is_not_called(self, monkeypatch):
        spec = synth.default_spec(n_cells=2, days=1.0, window_len=1800, seed=5)
        want = stdlib_dumps(spec)

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        assert dumps(spec) == want


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory):
    """One object of each document the CLI writes, made by the code that writes it."""
    scenario = tiny_scenario()
    topology = fogsim.default_topology()
    docs = {}
    for strategy in fogsim.Strategy:
        docs[f"report-{strategy.value}"], _, db = fogsim.simulate(topology, strategy, scenario)
    rng = np.random.default_rng(3)
    transactions = random_transactions(rng)
    cfg = fingerprints.MineConfig(s_min_count=1, s_max_fraction=1.0, c_min=0.05, lift_min=0.5, max_antecedent=3)
    rules = fingerprints.mine_rare_rules(transactions, cfg)
    labels = {(r.antecedent, r.consequent): f"cause {i}" for i, r in enumerate(rules[::2])}
    mined = fingerprints.update_db(db, rules, labels, built_at=9, transaction_total=64)
    for name, found in [("db-fog", db), ("db-random", mined)]:
        docs[name] = decode(_DbDoc, json.loads(fingerprints.db_to_json(found)))
    series = [tailed(make_series([1.0, None, 2.5, 3.0, 2.0, 100.0, 2.2, 2.7, 1.9, 2.1], metric_name=m))
              for m in ("m1", "m2")]
    docs["clean-report"] = cleaning.clean(series, cleaning.CleanConfig(min_points=4), 0.5)[1]
    _, truth = synth.generate(scenario.spec, tmp_path_factory.mktemp("generated"))
    docs["eval-report"] = synth.evaluate([], None, truth)
    docs["eval-report-fractions"] = synth.EvalReport(2 / 3, 0.1, 1 / 7, {"detected": 3})
    docs["catalog"] = scenario.spec.catalog()
    docs["truth"] = truth
    docs["labels"] = synth.Labels(truth.planted_rules)
    docs["spec"] = scenario.spec
    docs["scenario"] = scenario
    return docs


@pytest.mark.parametrize(
    "name",
    ["report-CENTRALIZED", "report-EDGE_INFERENCE", "report-FOG", "db-fog", "db-random", "clean-report",
     "eval-report", "eval-report-fractions", "catalog", "truth", "labels", "spec", "scenario"],
)
def test_cli_documents_equal_the_stdlib_indented_encoder(cli_documents, name):
    assert dumps(cli_documents[name]) == stdlib_dumps(cli_documents[name])


def test_the_mined_db_case_has_labelled_rules(cli_documents):
    rules = cli_documents["db-random"].rules
    assert len(rules) > 10 and any(r.cause_label for r in rules) and any(r.cause_label is None for r in rules)
