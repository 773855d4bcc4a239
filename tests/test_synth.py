import hashlib
import json
import math

import pytest

from cellwatch.baseline import Direction, exact_robust_score, hour_bucket
from cellwatch.errors import InvalidSpec
from cellwatch.fogsim import default_scenario
from cellwatch.jsondoc import decode, encode
from cellwatch.postfilter import AnomalyEvent
from cellwatch.synth import (
    AutoPlan,
    DiagnosisOutcome,
    GroundTruth,
    PlantedAnomaly,
    ScenarioSpec,
    default_spec,
    evaluate,
    generate,
    generate_series,
    load_spec,
    save_spec,
)


def small_spec(**kw):
    defaults = dict(n_cells=3, days=1.0, window_len=1800, seed=99, anomaly_count=2, calls_per_window=4.0)
    defaults.update(kw)
    return default_spec(**defaults)


class TestGenerate:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = small_spec()
        a, _ = generate(spec, tmp_path / "a")
        b, _ = generate(spec, tmp_path / "b")
        for name in ("cdr", "kqi", "kpi", "catalog", "truth", "labels"):
            assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes(), name

    def test_cdr_csv_bytes_are_pinned(self, tmp_path):
        # a change to the CDR draws, their order or the CSV format shows here
        paths, _ = generate(small_spec(), tmp_path)
        digest = hashlib.sha256(paths.cdr.read_bytes()).hexdigest()
        assert digest == "3720dded43675d3982377bd5141173eec586ff8d91f7ba773cae987391944f2c"

    def test_seed_override_changes_output(self, tmp_path):
        spec = small_spec()
        a, _ = generate(spec, tmp_path / "a")
        b, _ = generate(spec, tmp_path / "b", seed=100)
        assert a.kqi.read_bytes() != b.kqi.read_bytes()

    def test_truth_lists_every_planted_anomaly(self):
        spec = small_spec(anomaly_count=2)
        _, _, _, _, truth = generate_series(spec)
        assert len(truth.planted_events) == 2
        for event in truth.planted_events:
            assert event.start_window >= truth.train_cutoff_window
            assert event.cause_label is not None

    @staticmethod
    def value_at(series, window_start):
        """Value of a grid-complete series at one window; None when MISSING."""
        i = (window_start - int(series.window_starts[0])) // series.window_len
        assert series.window_starts[i] == window_start
        value = float(series.values[i])
        return None if math.isnan(value) else value

    @staticmethod
    def hour_matched_train(series, cutoff, window_start):
        return [
            v
            for ws, v in series.points
            if ws < cutoff and v is not None and hour_bucket(ws) == hour_bucket(window_start)
        ]

    def test_anomalies_confined_to_test_span(self):
        spec = small_spec(days=4.0, window_len=900, anomaly_count=3)
        _, kqi, _, _, truth = generate_series(spec)
        cut = truth.train_cutoff_window
        by_key = {(s.cell_id, s.metric_name): s for s in kqi}
        checked = 0
        for planted in truth.planted_events:
            series = by_key[(planted.cell_id, planted.metric)]
            for ws in range(planted.start_window, planted.end_window + 1, spec.window_len):
                value = self.value_at(series, ws)
                train = self.hour_matched_train(series, cut, ws)
                if value is None or len(train) < 8:
                    continue
                # planted at 8 MAD-units; sampling noise eats at most half
                assert exact_robust_score(train, value) >= 4.0
                checked += 1
        assert checked > 0

    def test_planted_symptoms_score_high_with_exact_scorer(self):
        spec = small_spec(days=4.0, window_len=900, anomaly_count=2)
        _, _, kpi, _, truth = generate_series(spec)
        cut = truth.train_cutoff_window
        by_key = {(s.cell_id, s.metric_name): s for s in kpi}
        rules_by_label = {r.cause_label: r.antecedent for r in truth.planted_rules}
        checked = 0
        for planted in truth.planted_events:
            tokens = rules_by_label[planted.cause_label]
            for token in tokens:
                kpi_name, _ = token.split("=")
                series = by_key[(planted.cell_id, kpi_name)]
                value = self.value_at(series, planted.start_window)
                train = self.hour_matched_train(series, cut, planted.start_window)
                if value is None or len(train) < 8:
                    continue
                assert exact_robust_score(train, value) >= 4.0
                checked += 1
        assert checked > 0

    def test_zero_anomaly_spec(self):
        spec = small_spec(anomaly_count=0)
        _, _, _, _, truth = generate_series(spec)
        assert truth.planted_events == []

    def test_cdr_traffic_generated_when_requested(self):
        calls, _, _, catalog, _ = generate_series(small_spec(calls_per_window=4.0))
        assert len(calls)
        assert "drop_rate" in catalog
        no_cdr, _, _, catalog2, _ = generate_series(small_spec(calls_per_window=0.0))
        assert len(no_cdr) == 0
        assert "drop_rate" not in catalog2

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(InvalidSpec):
            generate_series(small_spec(days=-1))
        spec = small_spec()
        spec.anomalies = [PlantedAnomaly("cell-000", "page_load_ms", 0, 2, 8.0)]
        with pytest.raises(InvalidSpec):  # inside the training span
            generate_series(spec)
        spec = small_spec()
        spec.anomalies = [PlantedAnomaly("cell-000", "nope", spec.train_cutoff_window, 2, 8.0)]
        with pytest.raises(InvalidSpec):
            generate_series(spec)

    def test_spec_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec
        explicit = small_spec()
        explicit.anomalies = [
            PlantedAnomaly("cell-001", "page_load_ms", spec.train_cutoff_window, 3, 8.0)
        ]
        assert decode(ScenarioSpec, encode(explicit)) == explicit

    @pytest.mark.parametrize(
        "make_spec, digest",
        [
            (default_spec, "e86f1bbc208d29d30e1cd56a31fdc2ac651e0790166794830af480889639fe49"),
            (
                lambda: default_scenario().spec,
                "0a7a3ca19fc07982264239b2d5c2acf4657861d71e29fcbefce97ed7e364b7f1",
            ),
        ],
        ids=["default_spec", "fog_scenario_spec"],
    )
    def test_saved_spec_bytes_are_pinned(self, tmp_path, make_spec, digest):
        path = tmp_path / "spec.json"
        save_spec(make_spec(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert load_spec(path) == make_spec()

    def test_generated_documents_are_pinned(self, tmp_path):
        paths, _ = generate(default_spec(seed=1), tmp_path)
        digests = {
            name: hashlib.sha256(getattr(paths, name).read_bytes()).hexdigest()
            for name in ("truth", "labels", "catalog")
        }
        assert digests == {
            "truth": "6d7e535f766361ea1a79e776a7d7b7f4661bd8b6602d87ad065a9a2ae5e28275",
            "labels": "792b039051414b82795a8d0e3cff4a5aa03a14c191e385d7e09c0d5065a7ca60",
            "catalog": "94dc933508e375d42f71ae57c04070c5d80480f0cd3da65707766b2d3feabb5c",
        }


class TestEvaluate:
    def truth(self):
        return GroundTruth(
            planted_events=[],
            planted_rules=[],
            train_cutoff_window=0,
            window_len=300,
        )

    def planted(self, cell, metric, start, end, cause="congestion"):
        from cellwatch.synth import PlantedEvent

        return PlantedEvent(cell, metric, start, end, cause)

    def event(self, cell, metric, start, end):
        return AnomalyEvent(cell, metric, start, end, 9.0, start, Direction.UP)

    def test_perfect_detection(self):
        truth = self.truth()
        truth.planted_events = [self.planted("c1", "m", 0, 600)]
        report = evaluate([self.event("c1", "m", 0, 600)], None, truth)
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_no_detections_convention(self):
        truth = self.truth()
        truth.planted_events = [self.planted("c1", "m", 0, 600)]
        report = evaluate([], None, truth)
        assert report.precision == 1.0
        assert report.recall == 0.0

    def test_partial_recall(self):
        truth = self.truth()
        truth.planted_events = [
            self.planted("c1", "m", 0, 600),
            self.planted("c2", "m", 0, 600),
            self.planted("c3", "m", 0, 600),
            self.planted("c4", "m", 0, 600),
        ]
        events = [self.event("c1", "m", 300, 900), self.event("c2", "m", 0, 0)]
        report = evaluate(events, None, truth)
        assert report.recall == 0.5
        assert report.precision == 1.0

    def test_overlap_requires_same_cell_and_metric(self):
        truth = self.truth()
        truth.planted_events = [self.planted("c1", "m", 0, 600)]
        report = evaluate([self.event("c2", "m", 0, 600)], None, truth)
        assert report.precision == 0.0

    def test_rca_accuracy_counts_matched_diagnoses_only(self):
        truth = self.truth()
        truth.planted_events = [
            self.planted("c1", "m", 0, 600, cause="congestion"),
            self.planted("c2", "m", 0, 600, cause="interference"),
            self.planted("c3", "m", 0, 600, cause="overload"),
        ]
        events = [
            self.event("c1", "m", 0, 600),
            self.event("c2", "m", 0, 600),
            self.event("c3", "m", 0, 600),
        ]
        outcomes = [
            DiagnosisOutcome(matched=True, top_label="congestion"),
            DiagnosisOutcome(matched=True, top_label="wrong"),
            DiagnosisOutcome(matched=False, top_label="overload"),
        ]
        report = evaluate(events, outcomes, truth)
        assert report.rca_top1_accuracy == 0.5  # 1 of 2 matched diagnoses correct
        assert report.counts["rca_considered"] == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            evaluate([self.event("c", "m", 0, 0)], [], self.truth())


def test_truth_json_round_trip(tmp_path):
    spec = small_spec()
    _, truth = generate(spec, tmp_path)
    doc = json.loads((tmp_path / "truth.json").read_text())
    assert decode(GroundTruth, doc) == truth
