import numpy as np
import pytest

from cellwatch.cleaning import CleanConfig, CleanDetail, CleanReport, after_training, clean, train_span
from cellwatch.errors import TooFewPoints
from cellwatch.jsondoc import encode

from helpers import make_series


CFG = CleanConfig(iqr_multiplier=6.0, min_points=4)


class TestClean:
    def test_constant_series_unchanged(self):
        series = make_series([5.0] * 30)
        cleaned, report = clean(series, CFG)
        assert cleaned.points == series.points
        assert report.missing_removed == 0
        assert report.extremes_removed == 0

    def test_gross_outlier_removed(self):
        # quantile oracle: 29 fives and one 1e9 give Q1 = Q3 = 5.0, so the
        # band collapses to {5.0} and only the corrupt point leaves
        values = [5.0] * 29 + [1e9]
        q1, q3 = np.percentile(values, [25, 75])
        assert q1 == q3 == 5.0
        cleaned, report = clean(make_series(values), CFG)
        assert report.extremes_removed == 1
        assert all(v == 5.0 for _, v in cleaned.points)

    def test_missing_counted(self):
        values = [5.0] * 20 + [None] * 10
        cleaned, report = clean(make_series(values), CFG)
        assert report.missing_removed == 10
        assert len(cleaned.points) == 20

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            clean(make_series([1.0, 2.0, None]), CFG)

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        values = list(rng.normal(10, 2, 50))
        cleaned, _ = clean(make_series(values), CFG)
        starts = [ws for ws, _ in cleaned.points]
        assert starts == sorted(starts)

    def test_counts_reconcile_with_lengths(self):
        rng = np.random.default_rng(11)
        values = [None if rng.random() < 0.2 else float(v) for v in rng.normal(0, 1, 200)]
        values[17] = 1e12
        series = make_series(values)
        cleaned, report = clean(series, CFG)
        assert len(series.points) - len(cleaned.points) == (
            report.missing_removed + report.extremes_removed
        )

    def test_single_pass_removes_all_missing(self):
        # single-pass fences: a second pass may remove more extremes, but
        # never finds missing values again
        rng = np.random.default_rng(23)
        values = [None if rng.random() < 0.3 else float(v) for v in rng.standard_cauchy(300)]
        cleaned, _ = clean(make_series(values), CFG)
        again, report2 = clean(cleaned, CFG)
        assert report2.missing_removed == 0

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        values = list(rng.normal(5, 3, 100))
        series = make_series(values)
        assert clean(series, CFG)[0] == clean(series, CFG)[0]


class TestTrainSpan:
    def test_seven_three(self):
        train = train_span(make_series(list(range(10))), 0.7)
        assert [ws for ws, _ in train.points] == [300 * i for i in range(7)]

    def test_ceiling_can_empty_test_part(self):
        with pytest.raises(TooFewPoints):
            train_span(make_series(list(range(10))), 0.95)

    def test_two_points_split_in_half(self):
        assert train_span(make_series([1.0, 2.0]), 0.5).points == [(0, 1.0)]

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            train_span(make_series([1.0, 2.0]), 1.0)


class TestAfterTraining:
    def test_none_keeps_every_series(self):
        series = [make_series([1.0, 2.0]), make_series([3.0], cell_id="c2")]
        assert after_training(series, None) is series

    def test_series_ending_at_trained_through_is_dropped(self):
        ends_at, goes_past = make_series([1.0, 2.0]), make_series([1.0, 2.0, 3.0], cell_id="c2")
        assert after_training([ends_at, goes_past], 300) == [make_series([3.0], cell_id="c2", start=600)]

    def test_series_of_different_extents_cut_at_one_window_start(self):
        short = make_series([1.0, 2.0, 3.0], start=600)  # windows 600..1200
        long = make_series(list(range(8)), cell_id="c2")  # windows 0..2100
        cut = after_training([short, long], 900)
        assert [[ws for ws, _ in s.points] for s in cut] == [[1200], [1200, 1500, 1800, 2100]]
        assert cut[1].values.tolist() == [4.0, 5.0, 6.0, 7.0]


def test_report_merge_accumulates():
    a = CleanReport(missing_removed=2, extremes_removed=1, detail=[CleanDetail("c1", "m", 2, 1)])
    b = CleanReport(missing_removed=3, extremes_removed=0, detail=[CleanDetail("c1", "m", 3, 0)])
    a.add(b)
    assert a.missing_removed == 5
    assert a.detail == [CleanDetail("c1", "m", 5, 1)]
    doc = encode(a)
    assert doc["detail"][0]["cell_id"] == "c1"


def test_report_detail_stays_in_key_order():
    report = CleanReport(0, 0, [])
    for cell, metric in [("c1", "m"), ("c0", "z"), ("c1", "a"), ("c0", "z")]:
        report.add(CleanReport(1, 0, [CleanDetail(cell, metric, 1, 0)]))
    assert report.detail == [CleanDetail("c0", "z", 2, 0), CleanDetail("c1", "a", 1, 0),
                             CleanDetail("c1", "m", 1, 0)]
