import hashlib
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellwatch import baseline
from cellwatch.baseline import (
    _DIRECTIONS,
    _digits,
    BaselineModel,
    DetectorConfig,
    Direction,
    SketchTable,
    fit_baseline,
    hour_bucket,
    load_model,
    merge_baselines,
    model_to_json,
    save_model,
    score_series,
)
from cellwatch.errors import EmptyTraining, IncompatibleSketch, SchemaMismatch, UnknownKey
from cellwatch.jsondoc import MalformedJson
from cellwatch.fogsim import compare_models
from cellwatch.ingest import MetricKind, Polarity

from helpers import (
    HistogramSketch,
    exact_median_mad,
    exact_robust_score,
    key_estimate,
    make_series,
    oracle_fit_baseline,
    oracle_load_model,
    oracle_model_to_json,
    table_sketch,
)


CFG = DetectorConfig(bin_count=128, tau=5.0, min_samples=3)


def fit_one(values, **series_kw):
    return fit_baseline([make_series(values, **series_kw)], CFG)


class TestExactStatistics:
    def test_lower_median_mad_of_small_sample(self):
        med, mad = exact_median_mad([1, 2, 3, 4, 100])
        assert med == 3
        assert mad == 1

    def test_reference_score(self):
        score = exact_robust_score([1, 2, 3, 4, 100], 100)
        assert score == pytest.approx(97 / 1.4826, rel=1e-12)

    def test_affine_invariance_on_random_data(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            data = list(rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), int(rng.integers(5, 80))))
            med, mad = exact_median_mad(data)
            x = med + float(rng.uniform(0.5, 8.0)) * max(mad, 0.1) * (1 if rng.random() < 0.5 else -1)
            a = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
            b = float(rng.uniform(-100, 100))
            base = exact_robust_score(data, x)
            mapped = exact_robust_score([a * v + b for v in data], a * x + b)
            assert mapped == pytest.approx(base, rel=1e-9)


class TestHistogramSketch:
    def test_estimates_within_one_bin_of_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(5, 300))
            kind = rng.integers(3)
            if kind == 0:
                values = rng.normal(50, 10, n)
            elif kind == 1:
                values = rng.uniform(-3, 3, n)
            else:
                values = rng.lognormal(1.0, 0.6, n)
            values = [float(v) for v in values]
            # 1-second windows keep every sample in hour bucket 0
            model = fit_one(values, window_len=1)
            est_med, est_mad, w = key_estimate(model, ("c1", "m1", 0))
            exact_med, exact_mad = exact_median_mad(values)
            assert abs(est_med - exact_med) <= w * (1 + 1e-9)
            assert abs(est_mad - exact_mad) <= w * (1 + 1e-9)

    def test_merge_adds_counts(self):
        def one_row(counts):
            zero = np.zeros(1, dtype=np.int64)
            table = SketchTable([("c", "m", 0)], np.zeros(1), np.ones(1), np.array([counts]), zero, zero)
            return BaselineModel(CFG, {}, table)

        merged = merge_baselines([one_row([1, 0]), one_row([0, 1])])
        assert merged.sketches.counts.tolist() == [[1, 1]]

    def test_boundary_values_and_overflow(self):
        cfg = DetectorConfig(bin_count=10, min_samples=1, bounds={"m1": (0.0, 10.0)})
        table = fit_baseline([make_series([0.0, 9.999, 10.0, -0.1, 10.1], window_len=1)], cfg).sketches
        assert table.underflow.tolist() == [1] and table.overflow.tolist() == [1]
        assert table.counts.sum() == 3
        assert table.stats(slice(None))[0].tolist() == [5]


class TestFitBaseline:
    def test_hour_bucketing_48_hourly_points(self):
        values = list(np.linspace(10, 20, 48))
        model = fit_one(values, window_len=3600)
        assert len(model.sketches) == 24
        assert (model.sketches.stats(slice(None))[0] == 2).all()

    def test_constant_values_single_bin_exact_median(self):
        model = fit_one([7.0] * 30, window_len=3600)
        table = model.sketches
        assert (np.count_nonzero(table.counts, axis=1) == 1).all()
        _, med, mad = table.stats(slice(None))
        assert (med == 7.0).all()
        assert (mad == 0.0).all()

    def test_skewed_key_median_mad_close_to_exact(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        model = fit_one(values, window_len=300)
        # all five fall in hour 0
        est_med, est_mad, w = key_estimate(model, ("c1", "m1", 0))
        assert abs(est_med - 3.0) <= w
        assert abs(est_mad - 1.0) <= w

    def test_empty_training_rejected(self):
        with pytest.raises(EmptyTraining):
            fit_baseline([], CFG)

    def test_fixed_bounds_are_used(self):
        cfg = DetectorConfig(bin_count=16, tau=5.0, min_samples=1, bounds={"m1": (0.0, 100.0)})
        model = fit_baseline([make_series([5.0, 50.0, 95.0])], cfg)
        assert (model.sketches.lo.tolist(), model.sketches.hi.tolist()) == ([0.0], [100.0])


def score_at_hour_0(model, value):
    """The scored record of ``value`` in a one-window (c1, m1) series at window start 0."""
    (scored,) = score_series(model, make_series([value]))
    return scored


class TestRobustScore:
    def test_zero_deviation_scores_zero(self):
        model = fit_one([7.0] * 30, window_len=3600)
        score = score_at_hour_0(model, 7.0)
        assert score.score == 0.0
        assert _DIRECTIONS[score.direction] == Direction.NONE
        assert not score.degrading

    def test_agrees_with_reference_scorer_to_bin_resolution(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        model = fit_one(values, window_len=300)
        got = score_at_hour_0(model, 100.0).score
        want = exact_robust_score(values, 100.0)
        assert want == pytest.approx(97 / 1.4826, rel=1e-9)
        # reconstruct the bin-resolution tolerance from the one-bin bounds
        _, _, w = key_estimate(model, ("c1", "m1", 0))
        lo = (97 - w) / (1.4826 * (1 + w) + 1e-9)
        hi = (97 + w) / (1.4826 * max(0.0, 1 - w) + 1e-9)
        assert lo <= got <= hi

    def test_degrading_follows_polarity(self):
        model = fit_one([10.0] * 30, window_len=3600, polarity=Polarity.HIGHER_IS_WORSE)
        assert score_at_hour_0(model, 11.0).degrading
        assert not score_at_hour_0(model, 9.0).degrading
        lower = fit_one([10.0] * 30, window_len=3600, polarity=Polarity.LOWER_IS_WORSE)
        assert lower is not None
        assert score_at_hour_0(lower, 9.0).degrading


class TestScoreSeries:
    def build(self, train_values, polarity=Polarity.HIGHER_IS_WORSE):
        series = make_series(train_values, window_len=300, polarity=polarity)
        return fit_baseline([series], CFG), series

    def test_values_at_baseline_never_flag(self):
        model, _ = self.build([10.0] * 50)
        test = make_series([10.0] * 20, window_len=300, start=50 * 300)
        assert not score_series(model, test).flagged.any()

    def test_planted_spike_flags_on_degrading_side_only(self):
        rng = np.random.default_rng(17)
        values = [float(v) for v in rng.normal(10, 1, 240)]
        med, mad = exact_median_mad(values)
        spike = med + 10 * 1.4826 * mad
        for polarity, expect in [(Polarity.HIGHER_IS_WORSE, True), (Polarity.LOWER_IS_WORSE, False)]:
            model, _ = self.build(values, polarity=polarity)
            test = make_series(
                [spike], window_len=300, start=0, polarity=polarity
            )
            (scored,) = score_series(model, test, tau=5.0)
            assert scored.flagged == expect

    def test_missing_points_are_unflagged_zero_scores(self):
        model, _ = self.build([10.0] * 50)
        test = make_series([None, 10.0], window_len=300, start=0)
        scored = score_series(model, test)
        assert scored[0].score == 0.0
        assert not scored[0].sufficient_data
        assert not scored[0].flagged

    def test_insufficient_samples_never_flag(self):
        cfg = DetectorConfig(bin_count=32, tau=2.0, min_samples=50)
        model = fit_baseline([make_series([10.0] * 10, window_len=300)], cfg)
        test = make_series([99.0], window_len=300)
        (scored,) = score_series(model, test)
        assert scored.score > 2.0
        assert not scored.flagged

    def test_records_read_as_columns(self):
        model, _ = self.build([10.0] * 50)
        test = make_series([10.0, 30.0, None, 9.0, 40.0], window_len=300, start=0)
        scored = score_series(model, test, tau=2.0)
        assert len(scored) == len(test.window_starts)
        assert scored.window_start.tolist() == test.window_starts.tolist()
        assert scored.flagged.any()
        assert [record.flagged for record in scored] == scored.flagged.tolist()

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        model, series = self.build([10.0] * 50)
        with pytest.raises(ValueError, match="tau must be > 0"):
            score_series(model, series, tau=tau)

    def test_series_never_trained_raises(self):
        model, _ = self.build([10.0] * 50)
        stranger = make_series([1.0], cell_id="other-cell")
        with pytest.raises(UnknownKey):
            score_series(model, stranger)

    def test_empty_hour_bucket_scores_like_missing(self):
        # train only hours 0..11, then score a window in hour 12
        model, _ = self.build([10.0] * 50)  # 300s windows cover hours 0..4
        test = make_series([10.0], window_len=300, start=12 * 3600)
        (scored,) = score_series(model, test)
        assert not scored.flagged
        assert not scored.sufficient_data


def oracle_score(model, key, value):
    """One value's score from the one-sketch oracle; None for an untrained key."""
    if key not in model.sketches.keys or key[1] not in model.metric_meta:
        return None
    sketch = table_sketch(model.sketches, model.sketches.keys.index(key))
    med, mad = sketch.estimate_median_mad()
    score = abs(value - med) / (1.4826 * mad + 1e-9)
    direction = Direction.UP if value > med else Direction.DOWN if value < med else Direction.NONE
    worse = Direction.UP if model.metric_meta[key[1]][1] == Polarity.HIGHER_IS_WORSE else Direction.DOWN
    return score, direction, direction == worse, sketch.total_count() >= model.config.min_samples


def reference_scores(model, test, tau):
    """score_series written window by window with the oracle."""
    out = []
    for ws, value in test.points:
        key = (test.cell_id, test.metric_name, hour_bucket(ws))
        want = None if value is None else oracle_score(model, key, value)
        if want is None:
            out.append((ws, 0.0, Direction.NONE, False, False, False))
            continue
        score, direction, degrading, sufficient = want
        out.append((ws, score, direction, degrading, sufficient, score >= tau and degrading and sufficient))
    return out


class TestArrayStagesAgainstLoops:
    """fit_baseline and score_series against per-value reference loops."""

    @staticmethod
    def random_series(rng, n_cells=3):
        series = []
        for c in range(n_cells):
            values = rng.normal(5, 3, 400)
            values[rng.random(400) < 0.05] = np.nan
            values[::37] = 12.0  # exactly on the fixed upper bound
            values[5::41] = -2.0  # exactly on the fixed lower bound
            values[7::53] = 40.0  # outside the fixed bounds
            series.append(make_series([None if np.isnan(v) else float(v) for v in values],
                                      cell_id=f"c{c}", window_len=900))
        series.append(make_series([3.25] * 100, cell_id="flat", window_len=900))
        return series

    @pytest.mark.parametrize("bounds", [None, {"m1": (-2.0, 12.0)}])
    def test_fit_counts_equal_insert_loop(self, bounds):
        rng = np.random.default_rng(17)
        series = self.random_series(rng)
        cfg = DetectorConfig(bin_count=16, min_samples=2, bounds=bounds)
        model = fit_baseline(series, cfg)
        per_key = {}
        for s in series:
            for ws, v in s.points:
                if v is not None:
                    per_key.setdefault((s.cell_id, s.metric_name, hour_bucket(ws)), []).append(v)
        assert model.sketches.keys == sorted(per_key)
        assert model.sketches.counts.dtype == np.int64
        for key, values in per_key.items():
            fitted = table_sketch(model.sketches, model.sketches.keys.index(key))
            if bounds is None:
                assert min(values) >= fitted.lo and max(values) <= fitted.hi
            else:
                assert (fitted.lo, fitted.hi) == bounds["m1"]
            ref = HistogramSketch.empty(fitted.lo, fitted.hi, cfg.bin_count)
            for v in values:
                ref.insert(v)
            assert fitted == ref

    def test_scores_equal_oracle_loop(self):
        rng = np.random.default_rng(23)
        series = self.random_series(rng)
        cfg = DetectorConfig(bin_count=32, min_samples=12)
        model = fit_baseline([s for s in series if s.cell_id != "c2"], cfg)
        for s in series[:2] + series[3:]:
            test = replace(s, values=s.values + rng.normal(0, 4, len(s.values)))
            scored = score_series(model, test, tau=3.0)
            got = list(zip(
                scored.window_start.tolist(), scored.score.tolist(),
                [_DIRECTIONS[d] for d in scored.direction.tolist()], scored.degrading.tolist(),
                scored.sufficient_data.tolist(), scored.flagged.tolist(),
            ))
            assert got == reference_scores(model, test, 3.0)


FIT_VALUES = st.one_of(
    st.none(),
    st.floats(-20, 30, allow_nan=False),
    st.sampled_from([0.0, 10.0, -5.0]),  # on the fixed bounds, below them
)
FIT_BOUNDS = st.sampled_from([None, (0.0, 10.0), (-1.0, 4.0), (5.0, 5.0)])  # (5, 5) cannot fit


class TestChunkedFit:
    """fit_baseline's chunked pass against one (cell, metric) pair at a time."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        drawn=st.lists(
            st.tuples(
                st.sampled_from(["c0", "c1", "c2"]),
                st.sampled_from(["m0", "m1"]),  # a (cell, metric) may repeat
                st.sampled_from([300, 1800, 3600]),
                st.integers(-30, 60),
                st.one_of(
                    st.lists(FIT_VALUES, max_size=40),  # different lengths, all MISSING included
                    st.tuples(st.floats(-20, 30), st.integers(1, 40)).map(lambda vn: [vn[0]] * vn[1]),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        bounds=st.tuples(FIT_BOUNDS, FIT_BOUNDS),
        bin_count=st.sampled_from([8, 16]),
        chunk=st.integers(1, 60),
    )
    def test_chunked_fit_equals_the_per_pair_oracle(self, drawn, bounds, bin_count, chunk):
        series = [
            make_series(values, cell_id=cell, metric_name=metric, window_len=window_len,
                        start=offset * window_len,
                        kind=MetricKind.KQI if metric == "m0" else MetricKind.KPI)
            for cell, metric, window_len, offset, values in drawn
        ]
        pinned = {metric: pair for metric, pair in zip(("m0", "m1"), bounds) if pair}
        cfg = DetectorConfig(bin_count=bin_count, min_samples=1, bounds=pinned or None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baseline, "CHUNK_VALUES", chunk)
            try:
                expected = oracle_fit_baseline(series, cfg)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    fit_baseline(series, cfg)
                assert str(got.value) == str(exc)
                return
            model = fit_baseline(series, cfg)
        assert model.sketches == expected.sketches
        assert model_to_json(model) == model_to_json(expected)  # lo and hi bit for bit
        assert (model.metric_meta, model.trained_through) == (expected.metric_meta, expected.trained_through)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_stats_of_an_index_array_equal_the_slice_rows(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        keys = [("c", "m", h) for h in range(data.draw(st.integers(1, 24)))]
        table = random_table(rng, keys, {key: (-1.0, 3.0) for key in keys}, 16)
        rows = np.array(data.draw(st.lists(st.integers(0, len(keys) - 1), max_size=30)), dtype=np.intp)
        whole = table.stats(slice(None))
        for got, want in zip(table.stats(rows), whole):
            assert got.tolist() == want[rows].tolist()

    def test_windows_that_hit_no_sketch_score_zero(self):
        model = fit_baseline([make_series([1.0, 2.0, 3.0], window_len=3600)], CFG)  # hours 0-2
        test = make_series([None, 5.0, 7.0, None], window_len=3600, start=3 * 3600)  # hours 3-6
        nan_only = make_series([None, None], window_len=3600)
        for series in (test, nan_only):
            scored = score_series(model, series)
            assert scored.score.tolist() == [0.0] * len(series.values)
            assert not scored.sufficient_data.any() and not scored.flagged.any()
            assert (scored.direction == 0).all()


def random_table(rng, keys, bounds, bin_count):
    """A table over ``keys`` with random sparse counts; bounds[key] gives (lo, hi)."""
    n = len(keys)
    counts = rng.integers(1, 6, (n, bin_count)) * (rng.random((n, bin_count)) < rng.uniform(0.05, 0.6))
    underflow = rng.integers(0, 4, n) * (rng.random(n) < 0.4)
    overflow = rng.integers(0, 4, n) * (rng.random(n) < 0.4)
    for r in range(n):
        shape = rng.integers(4)
        if shape == 0:  # all mass in one bin
            counts[r] = 0
            counts[r, rng.integers(bin_count)] = rng.integers(1, 9)
            underflow[r] = overflow[r] = 0
        elif shape == 1:  # mirrored counts: deviations tie on both sides of the median
            half = counts[r, : bin_count // 2]
            counts[r, bin_count - len(half):] = half[::-1]
            overflow[r] = underflow[r]
        if counts[r].sum() + underflow[r] + overflow[r] == 0:
            underflow[r] = 1
    lo = np.array([bounds[k][0] for k in keys], dtype=np.float64)
    hi = np.array([bounds[k][1] for k in keys], dtype=np.float64)
    return SketchTable(list(keys), lo, hi, counts.astype(np.int64),
                       underflow.astype(np.int64), overflow.astype(np.int64))


class TestSketchTableAgainstOracle:
    """SketchTable's array statistics and merge against the one-sketch oracle."""

    def test_stats_are_bit_identical_to_the_sketch_walk(self):
        rng = np.random.default_rng(59)
        rows = 0
        for case in range(300):
            nb = int(rng.integers(8, 40))
            keys = [("c", "m", h) for h in range(int(rng.integers(1, 24)))]
            if case % 2:  # unit-width bins: integer midpoints, many tied deviations
                bounds = dict.fromkeys(keys, (0.0, float(nb)))
            else:
                bounds = {k: (lo, lo + float(rng.lognormal(0, 2))) for k in keys
                          for lo in [float(rng.normal(0, 50))]}
            table = random_table(rng, keys, bounds, nb)
            total, med, mad = table.stats(slice(None))
            for r in range(len(keys)):
                oracle = table_sketch(table, r)
                want_med, want_mad = oracle.estimate_median_mad()
                assert (float(med[r]).hex(), float(mad[r]).hex()) == (want_med.hex(), want_mad.hex())
                assert total[r] == oracle.total_count()
            rows += len(keys)
        assert rows > 3000

    def test_stats_of_constant_keys_match_the_sketch_walk(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            value = float(rng.choice([0.0, rng.normal(0, 1e3), rng.integers(-5, 5)]))
            model = fit_baseline([make_series([value] * int(rng.integers(1, 30)), window_len=1)], CFG)
            _, med, mad = model.sketches.stats(slice(None))
            want_med, want_mad = table_sketch(model.sketches, 0).estimate_median_mad()
            assert (float(med[0]).hex(), float(mad[0]).hex()) == (want_med.hex(), want_mad.hex())
            assert want_mad == 0.0 and abs(want_med - value) <= 1e-12 * max(1.0, abs(value))

    def test_merge_equals_per_key_addition(self):
        rng = np.random.default_rng(67)
        universe = [(f"c{c}", m, h) for c in range(4) for m in ("m1", "m2") for h in range(0, 24, 5)]
        bounds = {k: (float(k[2]), float(k[2]) + 10.0) for k in universe}
        cfg = DetectorConfig(bin_count=8)
        for _ in range(40):
            models = []
            for _ in range(int(rng.integers(1, 5))):
                keys = sorted(k for k in universe if rng.random() < 0.4)
                models.append(BaselineModel(cfg, {}, random_table(rng, keys, bounds, cfg.bin_count)))
            want = {}
            for m in models:
                for r, key in enumerate(m.sketches.keys):
                    part = table_sketch(m.sketches, r)
                    acc = want.setdefault(key, HistogramSketch.empty(part.lo, part.hi, cfg.bin_count))
                    acc.counts = [a + b for a, b in zip(acc.counts, part.counts)]
                    acc.underflow += part.underflow
                    acc.overflow += part.overflow
            merged = merge_baselines(models).sketches
            assert merged.keys == sorted(want)
            assert [table_sketch(merged, r) for r in range(len(merged))] == [want[k] for k in merged.keys]


class TestMergeBaselines:
    def fit_partitions(self, seed, n_parts):
        rng = np.random.default_rng(seed)
        cfg = DetectorConfig(bin_count=64, tau=5.0, min_samples=1, bounds={"m1": (-10.0, 10.0)})
        values = [float(v) for v in rng.normal(0, 2, 120)]
        series = make_series(values, window_len=300)
        pooled = fit_baseline([series], cfg)
        bounds_idx = sorted(rng.choice(len(values), size=n_parts - 1, replace=False))
        parts = []
        prev = 0
        for cut in list(bounds_idx) + [len(values)]:
            if cut > prev:
                part = replace(
                    series,
                    window_starts=series.window_starts[prev:cut],
                    values=series.values[prev:cut],
                )
                parts.append(fit_baseline([part], cfg))
            prev = cut
        return pooled, parts

    def test_identity_element(self):
        pooled, parts = self.fit_partitions(1, 2)
        empty = BaselineModel.empty(pooled.config)
        merged = merge_baselines([pooled, empty])
        assert merged == pooled

    def test_partition_fit_equals_pooled_fit(self):
        for seed, n_parts in [(2, 2), (3, 3), (4, 5)]:
            pooled, parts = self.fit_partitions(seed, n_parts)
            assert merge_baselines(parts) == pooled

    def test_associative_and_commutative(self):
        pooled, parts = self.fit_partitions(9, 3)
        a, b, c = parts
        left = merge_baselines([merge_baselines([a, b]), c])
        right = merge_baselines([a, merge_baselines([b, c])])
        swapped = merge_baselines([c, a, b])
        assert left == right == swapped == pooled

    def test_incompatible_bounds_rejected(self):
        cfg = DetectorConfig(bin_count=16, tau=5.0, min_samples=1)
        a = fit_baseline([make_series([1.0, 2.0, 3.0])], cfg)
        b = fit_baseline([make_series([100.0, 200.0, 300.0])], cfg)
        with pytest.raises(IncompatibleSketch):
            merge_baselines([a, b])

    def test_different_config_rejected(self):
        a = fit_baseline([make_series([1.0, 2.0, 3.0])], DetectorConfig(bin_count=16))
        b = fit_baseline([make_series([1.0, 2.0, 3.0])], DetectorConfig(bin_count=32))
        with pytest.raises(IncompatibleSketch):
            merge_baselines([a, b])


def one_key_model_doc(copies=1, keys=None, **sketches):
    """A model document whose one (c1, m1, hour 0) key is listed ``copies`` times.

    ``keys`` and ``sketches`` replace whole columns of the key and sketch
    sections after the repetition.
    """
    sketch = {"lo": [0.0], "hi": [1.0], "underflow": [0], "overflow": [0], "nbins": [1], "bins": [2], "counts": [3]}
    return {
        "schema_version": 3,
        "trained_through": 0 if copies else None,
        "config": {"bin_count": 8, "tau": 5.0, "min_samples": 1, "bounds": None},
        "metrics": {"m1": {"kind": "KQI", "polarity": "HIGHER_IS_WORSE"}},
        "keys": {"cell_names": ["c1"], "metric_names": ["m1"], "cell": [0] * copies, "metric": [0] * copies,
                 "hour": [0] * copies, **(keys or {})},
        "sketches": {"bin_count": 8, **{name: column * copies for name, column in sketch.items()}, **sketches},
    }


def pinned_model(case):
    """One fixed-bounds fit, one data-driven-bounds fit or one merge of partition fits."""
    series = TestArrayStagesAgainstLoops.random_series(np.random.default_rng(41))
    series.append(make_series([float(v) for v in np.random.default_rng(43).gamma(2.0, 3.0, 300)],
                              metric_name="m2", polarity=Polarity.LOWER_IS_WORSE, window_len=600))
    if case == "data_driven_bounds":
        return fit_baseline(series, DetectorConfig(bin_count=16, min_samples=2))
    cfg = DetectorConfig(bin_count=16, min_samples=2, bounds={"m1": (-2.0, 12.0), "m2": (0.0, 25.0)})
    if case == "fixed_bounds":
        return fit_baseline(series, cfg)
    parts = [
        fit_baseline([replace(s, window_starts=s.window_starts[cut], values=s.values[cut]) for s in series], cfg)
        for cut in (slice(None, 150), slice(150, 260), slice(260, None))
    ]
    return merge_baselines(parts)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
BOUNDS = st.tuples(FINITE, FINITE).filter(lambda b: b[0] != b[1]).map(lambda b: (min(b), max(b)))
COUNT = st.one_of(st.just(0), st.integers(1, 2**40))
NAMES = st.lists(st.text("ab-é", min_size=1, max_size=3), min_size=1, max_size=3, unique=True)


@st.composite
def random_models(draw, names=NAMES):
    """A fit-shaped model: fixed bounds for some metrics, arbitrary finite bounds for the
    rest, rows whose mass lies only in the bins, underflow or overflow, and for 2-3
    partitions their merge. Cell and metric names are drawn from ``names``."""
    nb = draw(st.sampled_from([8, 16]))
    cells, metrics = draw(names), draw(names)
    fixed = {metric: draw(BOUNDS) for metric in metrics if draw(st.booleans())}
    universe = draw(st.sets(st.tuples(st.sampled_from(cells), st.sampled_from(metrics), st.integers(0, 23)),
                            max_size=10))
    bounds = {key: fixed.get(key[1]) or draw(BOUNDS) for key in sorted(universe)}
    cfg = DetectorConfig(bin_count=nb, bounds=fixed or None)
    meta = {metric: (draw(st.sampled_from(MetricKind)), draw(st.sampled_from(Polarity))) for metric in metrics}

    def part(keys):
        counts, underflow, overflow = [], [], []
        for _ in keys:
            mass = draw(st.sampled_from(["bins", "underflow", "overflow", "all"]))
            row = draw(st.lists(COUNT, min_size=nb, max_size=nb)) if mass in ("bins", "all") else [0] * nb
            under = draw(COUNT) if mass in ("underflow", "all") else 0
            over = draw(COUNT) if mass in ("overflow", "all") else 0
            if not any(row) and not under and not over:
                row[draw(st.integers(0, nb - 1))] = 1
            counts.append(row)
            underflow.append(under)
            overflow.append(over)
        table = SketchTable(
            keys,
            np.array([bounds[key][0] for key in keys], dtype=np.float64),
            np.array([bounds[key][1] for key in keys], dtype=np.float64),
            np.array(counts, dtype=np.int64).reshape(len(keys), nb),
            np.array(underflow, dtype=np.int64),
            np.array(overflow, dtype=np.int64),
        )
        through = draw(st.integers(-(2**63), 2**63 - 1)) if keys else None
        return BaselineModel(config=cfg, metric_meta=meta, sketches=table, trained_through=through)

    n_parts = draw(st.integers(1, 3))
    parts = [part([key for key in bounds if n_parts == 1 or draw(st.booleans())]) for _ in range(n_parts)]
    return parts[0] if n_parts == 1 else merge_baselines(parts)


class TestSerialization:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(random_models())
    def test_random_models_round_trip_exactly(self, model):
        text = model_to_json(model)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(text, encoding="utf-8")
            loaded = load_model(path)
        assert compare_models(loaded, model)
        assert model_to_json(loaded) == text  # bounds bit for bit, -0.0 included

    def test_round_trip_and_byte_stability(self, tmp_path):
        rng = np.random.default_rng(31)
        series = [
            make_series([float(v) for v in rng.normal(5, 2, 60)], cell_id=f"c{i}", window_len=900)
            for i in range(3)
        ]
        cfg = DetectorConfig(bin_count=32, tau=4.0, min_samples=2, bounds={"m1": (-20.0, 30.0)})
        model = fit_baseline(series, cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        assert model_to_json(loaded) == model_to_json(model)
        again = tmp_path / "model2.json"
        save_model(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"schema_version": 99}')
        with pytest.raises(SchemaMismatch):
            load_model(path)


    def test_v1_document_asks_for_retraining(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**one_key_model_doc(copies=0), "schema_version": 1, "keys": []}))
        with pytest.raises(SchemaMismatch, match="unsupported model schema 1: .* retrain the model"):
            load_model(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"schema_version": 2},
            [1, 2, 3],
            "model",
            {"schema_version": 2, "config": {"bin_count": 16, "tau": 5.0, "min_samples": 1}},
            {"schema_version": 2, "config": [], "metrics": {}, "keys": {}, "sketches": {}},
            {**one_key_model_doc(copies=0), "metrics": {"m1": {"kind": "KQI", "polarity": "SIDEWAYS"}}},
            {**one_key_model_doc(), "sketches": {"bin_count": 8}},  # missing columns
            # bins that do not rise within 0..bin_count-1, negative counts
            one_key_model_doc(bins=[-1]),
            one_key_model_doc(bins=[8]),
            one_key_model_doc(counts=[-3]),
            one_key_model_doc(underflow=[-1]),
            # a bin_count other than the config's
            one_key_model_doc(bin_count=16),
            # a repeated key
            one_key_model_doc(copies=2),
            # zero total mass
            one_key_model_doc(nbins=[0], bins=[], counts=[]),
            # non-finite bounds or lo >= hi
            one_key_model_doc(lo=[1.0]),
            one_key_model_doc(lo=[2.0]),
            one_key_model_doc(hi=[float("inf")]),
            one_key_model_doc(lo=[float("nan")]),
            # an hour outside 0..23
            one_key_model_doc(keys={"hour": [24]}),
            one_key_model_doc(keys={"hour": [-1]}),
            # counts that are not JSON integers
            one_key_model_doc(counts=[True]),
            one_key_model_doc(bins=[True]),
            one_key_model_doc(underflow=[True]),
            # a bin listed twice, bins falling
            one_key_model_doc(nbins=[2], bins=[2, 2], counts=[3, 4]),
            one_key_model_doc(nbins=[2], bins=[3, 2], counts=[1, 1]),
            one_key_model_doc(counts=[3.0]),
            # keys out of sorted order
            one_key_model_doc(copies=2, keys={"hour": [1, 0]}),
            one_key_model_doc(copies=2, keys={"cell_names": ["c1", "c2"], "cell": [1, 0]}),
            # a name index out of range
            one_key_model_doc(keys={"cell": [1]}),
            one_key_model_doc(keys={"metric": [1]}),
            # names unsorted, repeated or not strings
            one_key_model_doc(keys={"cell_names": ["c2", "c1"]}),
            one_key_model_doc(keys={"cell_names": ["c1", "c1"]}),
            one_key_model_doc(keys={"metric_names": [1]}),
            # columns of different lengths
            one_key_model_doc(hi=[1.0, 2.0]),
            one_key_model_doc(keys={"metric": [0, 0]}),
            one_key_model_doc(nbins=[2]),
            one_key_model_doc(counts=[3, 4]),
            one_key_model_doc(nbins=[9], bins=list(range(9)), counts=[1] * 9),
            # other non-integers
            one_key_model_doc(keys={"hour": [True]}),
            one_key_model_doc(keys={"cell": [0.0]}),
            one_key_model_doc(bin_count=8.0),
            one_key_model_doc(counts=[2**63]),
            one_key_model_doc(lo=["0"]),
            one_key_model_doc(hi=None),
            # no last trained window, or one that is not an int64 window start
            {k: v for k, v in one_key_model_doc().items() if k != "trained_through"},
            {**one_key_model_doc(), "trained_through": None},
            {**one_key_model_doc(), "trained_through": True},
            {**one_key_model_doc(), "trained_through": 0.0},
            {**one_key_model_doc(), "trained_through": "0"},
            {**one_key_model_doc(), "trained_through": 2**63},
            {**one_key_model_doc(copies=0), "trained_through": 0},
        ],
    )
    def test_malformed_document_is_schema_mismatch(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            load_model(path)

    def test_one_key_model_doc_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(one_key_model_doc()))
        model = load_model(path)
        assert len(model.sketches) == 1
        assert score_at_hour_0(model, 0.3125).score == 0.0

    @pytest.mark.parametrize(
        "case, sha256",
        [
            ("fixed_bounds", "4b90e78d16156c399b09b08b04f65a0b20a5c5c4dc28b2f75b4af4f5a7f11ad0"),
            ("data_driven_bounds", "c687a56b15c9a65bae0b771781e17c7147dd7b6c15d3e3a2e071e5eafc962a78"),
            # merging is exact, so the merged partitions pin the pooled fit's bytes
            ("merged", "4b90e78d16156c399b09b08b04f65a0b20a5c5c4dc28b2f75b4af4f5a7f11ad0"),
        ],
        ids=["fixed_bounds", "data_driven_bounds", "merged"],
    )
    def test_model_json_is_pinned(self, case, sha256):
        text = model_to_json(pinned_model(case))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


# names that hold the bytes the integer columns are cut at, and non-ASCII text
AWKWARD_NAMES = st.lists(st.text("a],é", min_size=1, max_size=3), min_size=1, max_size=3, unique=True)
INT_COLUMNS = ("cell", "metric", "hour", "underflow", "overflow", "nbins", "bins", "counts")
LAYOUTS = {
    "compact": lambda text: text,
    "default": lambda text: json.dumps(json.loads(text), sort_keys=True) + "\n",
    "indented": lambda text: json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n",
}
# each mutation rewrites one item of an integer column (or puts the text in an empty column)
ITEM_MUTATIONS = {
    "leading_zero": lambda item: "0" + item,
    "minus_zero": lambda item: "-0",
    "nineteen_digits": lambda item: "1" * 19,
    "two_to_the_63": lambda item: str(2**63),
    "float": lambda item: "1.0",
    "bool": lambda item: "true",
    "space": lambda item: item + " ",
    "newline": lambda item: "\n" + item,
}


def _mutate(draw, text: str) -> str:
    """``text`` with one integer column's item rewritten, cut short, or as it is."""
    how = draw(st.sampled_from(["none", "truncate", *ITEM_MUTATIONS]))
    if how == "none":
        return text
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    start = text.index("[", text.index(f'"{draw(st.sampled_from(INT_COLUMNS))}"')) + 1
    end = text.index("]", start)
    items = list(re.finditer("[0-9]+", text[start:end]))
    if not items:
        return text[:start] + ITEM_MUTATIONS[how]("7") + text[end:]
    item = items[draw(st.integers(0, len(items) - 1))]
    at, to = start + item.start(), start + item.end()
    return text[:at] + ITEM_MUTATIONS[how](item.group()) + text[to:]


def _outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # the exception is the outcome compared
        return exc


class TestCodecAgainstOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_same_bytes_and_same_loads_as_json_lists(self, data):
        """model_to_json writes json.dumps's bytes; load_model reads every layout and mutation as json.loads does."""
        model = data.draw(st.one_of(random_models(), random_models(names=AWKWARD_NAMES)))
        text = model_to_json(model)
        assert text == oracle_model_to_json(model)
        with tempfile.TemporaryDirectory() as tmp:
            for layout, dump in LAYOUTS.items():
                path = Path(tmp) / f"{layout}.json"
                path.write_text(_mutate(data.draw, dump(text)), encoding="utf-8")
                new, old = _outcome(load_model, path), _outcome(oracle_load_model, path)
                if isinstance(old, Exception):
                    assert type(new) is type(old), (layout, old, new)
                    if isinstance(old, MalformedJson):
                        assert str(new) == str(old)
                else:
                    assert not isinstance(new, Exception), (layout, new)
                    assert new == old
                    assert model_to_json(new) == oracle_model_to_json(old)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-(2**33), 2**33),  # the uint32 pass and its edges
        st.sampled_from([0, 9, 10, 2**32 - 1, 2**32, 1 - 2**32, -(2**32), 2**63 - 1, -(2**63)]),
    )))
    def test_digits_are_each_ints_str(self, values):
        assert _digits(np.array(values, dtype=np.int64)) == ",".join(map(str, values))

    @pytest.mark.parametrize("depth", [600, 200_000])
    def test_nesting_reads_as_json_loads_reads_it(self, tmp_path, depth):
        """No Python frame per level: what json.loads reads is read, and what it cannot is MalformedJson."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps(one_key_model_doc()).replace('"cell": [0]', f'"cell": {"[" * depth}{"]" * depth}'))
        new, old = _outcome(load_model, path), _outcome(oracle_load_model, path)
        assert type(new) is type(old) is (SchemaMismatch if depth == 600 else MalformedJson)
        assert depth == 600 or str(new) == str(old)

    def test_integer_arrays_outside_the_integer_columns_stay_lists(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(one_key_model_doc(lo=[0], hi=[1]), separators=(",", ":")))
        model = load_model(path)
        assert model == oracle_load_model(path)
        assert model.sketches.lo.dtype == np.float64 and model.sketches.hi.tolist() == [1.0]


def test_hour_bucket_wraps_days():
    assert hour_bucket(0) == 0
    assert hour_bucket(3600) == 1
    assert hour_bucket(25 * 3600) == 1
    assert hour_bucket(86400 * 3 + 7200) == 2
