import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellwatch import cleaning, fogsim, synth
from cellwatch.cleaning import CleanConfig, CleanDetail, _quartiles, after_training, clean, train_span
from cellwatch.errors import TooFewPoints
from cellwatch.ingest import aggregate_cdr
from cellwatch.jsondoc import encode

from helpers import make_series, oracle_split_clean, tailed


CFG = CleanConfig(iqr_multiplier=6.0, min_points=4)
HALF = 0.5  # with ``tailed``: the training span of tailed(s) is s


class TestClean:
    def test_constant_series_unchanged(self):
        series = make_series([5.0] * 30)
        (cleaned,), report = clean([tailed(series)], CFG, HALF)
        assert cleaned.points == series.points
        assert report.missing_removed == 0
        assert report.extremes_removed == 0

    def test_gross_outlier_removed(self):
        # quantile oracle: 29 fives and one 1e9 give Q1 = Q3 = 5.0, so the
        # band collapses to {5.0} and only the corrupt point leaves
        values = [5.0] * 29 + [1e9]
        q1, q3 = np.percentile(values, [25, 75])
        assert q1 == q3 == 5.0
        (cleaned,), report = clean([tailed(make_series(values))], CFG, HALF)
        assert report.extremes_removed == 1
        assert all(v == 5.0 for _, v in cleaned.points)

    def test_missing_counted(self):
        values = [5.0] * 20 + [None] * 10
        (cleaned,), report = clean([tailed(make_series(values))], CFG, HALF)
        assert report.missing_removed == 10
        assert len(cleaned.points) == 20

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            clean([tailed(make_series([1.0, 2.0, None]))], CFG, HALF)

    def test_ceiling_can_empty_test_part(self):
        with pytest.raises(TooFewPoints, match="^c1/m1: split 10/0 leaves an empty part$"):
            clean([make_series(list(range(10)))], CFG, 0.95)

    def test_a_series_failing_both_checks_is_named_for_its_split(self):
        with pytest.raises(TooFewPoints, match="^c1/m1: split 1/0 leaves an empty part$"):
            clean([make_series([None])], CFG, HALF)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            clean([make_series([1.0, 2.0])], CFG, 1.0)

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        values = list(rng.normal(10, 2, 50))
        (cleaned,), _ = clean([tailed(make_series(values))], CFG, HALF)
        starts = [ws for ws, _ in cleaned.points]
        assert starts == sorted(starts)

    def test_counts_reconcile_with_lengths(self):
        rng = np.random.default_rng(11)
        values = [None if rng.random() < 0.2 else float(v) for v in rng.normal(0, 1, 200)]
        values[17] = 1e12
        series = make_series(values)
        (cleaned,), report = clean([tailed(series)], CFG, HALF)
        assert len(series.points) - len(cleaned.points) == (
            report.missing_removed + report.extremes_removed
        )

    def test_single_pass_removes_all_missing(self):
        # single-pass fences: a second pass may remove more extremes, but
        # never finds missing values again
        rng = np.random.default_rng(23)
        values = [None if rng.random() < 0.3 else float(v) for v in rng.standard_cauchy(300)]
        cleaned, _ = clean([tailed(make_series(values))], CFG, HALF)
        _, report2 = clean([tailed(s) for s in cleaned], CFG, HALF)
        assert report2.missing_removed == 0

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        values = list(rng.normal(5, 3, 100))
        series = make_series(values)
        assert clean([tailed(series)], CFG, HALF)[0] == clean([tailed(series)], CFG, HALF)[0]


class TestTrainSpan:
    def test_seven_three(self):
        train = train_span(make_series(list(range(10))), 0.7)
        assert [ws for ws, _ in train.points] == [300 * i for i in range(7)]

    def test_two_points_split_in_half(self):
        assert train_span(make_series([1.0, 2.0]), 0.5).points == [(0, 1.0)]

    def test_a_cut_that_takes_every_point_raises_nothing(self):
        assert len(train_span(make_series(list(range(10))), 0.95).values) == 10


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
    # one (cell, metric) twice: 2 missing and the 1e9 extreme, then 3 missing
    a = make_series([5.0] * 29 + [1e9, None, None], cell_id="c1", metric_name="m")
    b = make_series([5.0] * 30 + [None] * 3, cell_id="c1", metric_name="m")
    cleaned, report = clean([tailed(a), tailed(b)], CFG, HALF)
    assert [len(s.values) for s in cleaned] == [29, 30]
    assert (report.missing_removed, report.extremes_removed) == (5, 1)
    assert report.detail == [CleanDetail("c1", "m", 5, 1)]
    doc = encode(report)
    assert doc["detail"][0]["cell_id"] == "c1"


def test_report_detail_stays_in_key_order():
    spans = [make_series([1.0] * 8 + [None], cell_id=cell, metric_name=metric)
             for cell, metric in [("c1", "m"), ("c0", "z"), ("c1", "a"), ("c0", "z")]]
    cleaned, report = clean([tailed(s) for s in spans], CFG, HALF)
    assert [(s.cell_id, s.metric_name) for s in cleaned] == [("c1", "m"), ("c0", "z"), ("c1", "a"), ("c0", "z")]
    assert report.detail == [CleanDetail("c0", "z", 2, 0), CleanDetail("c1", "a", 1, 0),
                             CleanDetail("c1", "m", 1, 0)]


VALUES = st.one_of(
    st.floats(-100, 100, allow_nan=False),
    st.floats(-100, 100, allow_nan=False),
    st.floats(-100, 100, allow_nan=False),
    st.none(),
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 5.0, -3.0, 1e9, -1e9]),
)
KEYS = st.tuples(st.sampled_from(["c0", "c1"]), st.sampled_from(["m", "z"]))  # repeats a (cell, metric)
KEEPS = st.one_of(  # spans of different lengths that keep min_points
    st.lists(VALUES, min_size=16, max_size=40),
    st.tuples(st.floats(-100, 100, allow_nan=False), st.integers(16, 40)).map(lambda vn: [vn[0]] * vn[1]),  # constant
)
FAILS = st.one_of(  # spans that cannot keep min_points
    st.lists(VALUES, min_size=1, max_size=3),
    st.integers(0, 10).map(lambda n: [None] * n),  # all MISSING
)
SPLITS = st.lists(VALUES, max_size=1)  # series whose cut at fraction 0.5 leaves an empty part


def with_tail(spans):
    """Series whose training span at fraction 0.5 is the drawn span: it and n - 1 or n more values."""
    return spans.flatmap(lambda span: st.lists(VALUES, min_size=max(len(span) - 1, 0), max_size=len(span))
                         .map(lambda tail: span + tail))


class TestBatchedClean:
    """clean's chunked matrix pass against a raising cut and one np.percentile call per span."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        chunk=st.integers(1, 200),
        iqr_multiplier=st.sampled_from([0.5, 1.5, 6.0]),
        min_points=st.integers(4, 8),
    )
    def test_chunked_clean_equals_the_per_span_oracle(self, data, chunk, iqr_multiplier, min_points):
        drawn = data.draw(st.lists(st.tuples(KEYS, with_tail(KEEPS)), max_size=8))
        for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):  # failures anywhere; the first is named
            failing = st.one_of(with_tail(FAILS), SPLITS)
            drawn.insert(data.draw(st.integers(0, len(drawn))), data.draw(st.tuples(KEYS, failing)))
        series = [make_series(values, cell_id=cell, metric_name=metric, start=300 * i)
                  for i, ((cell, metric), values) in enumerate(drawn)]
        cfg = CleanConfig(iqr_multiplier=iqr_multiplier, min_points=min_points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cleaning, "CHUNK_VALUES", chunk)
            try:
                expected = oracle_split_clean(series, cfg, HALF)
            except TooFewPoints as exc:
                with pytest.raises(TooFewPoints) as got:
                    clean(series, cfg, HALF)
                assert str(got.value) == str(exc)
                return
            assert clean(series, cfg, HALF) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=12), min_size=1, max_size=6))
    def test_quartiles_are_numpys_bit_for_bit(self, rows):
        rows = [np.sort(np.array(row) + 0.0) for row in rows]  # + 0.0: no -0.0, so ties are one bit pattern
        ordered = np.full((len(rows), max(map(len, rows))), np.nan)
        for into, row in zip(ordered, rows):
            into[: len(row)] = row
        got = np.column_stack(_quartiles(ordered, np.array([len(row) for row in rows])))
        expected = np.array([np.percentile(row, [25.0, 75.0]) for row in rows])
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_an_empty_row_has_no_quartiles(self):
        q1, q3 = _quartiles(np.full((2, 3), np.nan), np.array([0, 0]))
        assert np.isnan(q1).all() and np.isnan(q3).all()

    def test_a_single_negative_zero_keeps_its_sign(self):
        # numpy reads a lone value at weight 1, from the upper formula: b - (b - a) * 0 is -0.0, a + 0 * 0 is not
        q1, q3 = _quartiles(np.array([[-0.0, np.nan]]), np.array([1]))
        assert np.signbit([q1[0], q3[0]]).tolist() == np.signbit(np.percentile([-0.0], [25.0, 75.0])).tolist() == [True, True]

    @pytest.mark.parametrize("source", ["stock-1", "fog-1", "fog-2"])
    def test_quartiles_equal_numpys_on_the_generated_training_spans(self, source):
        kind, seed = source.split("-")
        if kind == "stock":
            spec = synth.default_spec(seed=int(seed))
            _, kqi, kpi, _, _ = synth.generate_series(spec)
            series = kqi + kpi
        else:
            spec = fogsim.default_scenario(seed=int(seed)).spec
            calls, kqi, kpi, _, _ = synth.generate_series(spec)
            series = aggregate_cdr(calls, spec.window_len) + kqi + kpi
        rows = [np.sort(v[~np.isnan(v)]) for s in series for v in [train_span(s, spec.train_fraction).values]]
        ordered = np.full((len(rows), max(map(len, rows))), np.nan)
        for into, row in zip(ordered, rows):
            into[: len(row)] = row
        got = np.column_stack(_quartiles(ordered, np.array([len(row) for row in rows])))
        expected = np.array([np.percentile(row, [25.0, 75.0]) for row in rows])
        assert len(rows) == (300 if kind == "stock" else 72)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
