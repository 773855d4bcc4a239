import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellwatch.errors import DuplicatePoint, MalformedHeader, MalformedRow, UnknownMetric
from cellwatch.ingest import (
    CdrCalls,
    MetricInfo,
    MetricKind,
    MetricSeries,
    Polarity,
    aggregate_cdr,
    load_catalog,
    parse_cdr,
    parse_metric_csv,
    save_catalog,
    write_cdr_csv,
    write_metric_csv,
)
from cellwatch.synth import default_spec, generate_series


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


CDR_HEADER = "cell_id,start_time,duration,dropped,source_hash,dest_hash"


def cdr(*rows):
    """CdrCalls from (cell_id, start_time, duration, dropped, source_hash, dest_hash) rows."""
    return CdrCalls(*zip(*rows)) if rows else CdrCalls()


class TestParseCdr:
    def test_header_only_gives_empty_list(self, tmp_path):
        p = write(tmp_path / "cdr.csv", CDR_HEADER + "\n")
        assert parse_cdr(p) == cdr()
        assert len(parse_cdr(p)) == 0

    def test_single_row(self, tmp_path):
        p = write(tmp_path / "cdr.csv", CDR_HEADER + "\nc1,1000,30,0,h1,h2\n")
        assert parse_cdr(p) == cdr(("c1", 1000, 30.0, False, "h1", "h2"))

    def test_negative_duration_is_malformed_row_2(self, tmp_path):
        p = write(tmp_path / "cdr.csv", CDR_HEADER + "\nc1,1000,-5,0,h1,h2\n")
        with pytest.raises(MalformedRow) as exc:
            parse_cdr(p)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "NaN", "Infinity", "-INF"])
    def test_non_finite_duration_is_malformed_row(self, tmp_path, duration):
        p = write(tmp_path / "cdr.csv", CDR_HEADER + f"\nc1,1000,30,0,h1,h2\nc1,1300,{duration},0,h1,h2\n")
        with pytest.raises(MalformedRow, match=f"line 3: non-finite duration '{duration}'"):
            parse_cdr(p)

    @pytest.mark.parametrize("start", ["99999999999999999999", "-99999999999999999999", "1000000000000000000"])
    def test_start_time_beyond_the_grid_range_is_malformed_row(self, tmp_path, start):
        p = write(
            tmp_path / "cdr.csv",
            CDR_HEADER + f"\nc1,{start},30,0,h1,h2\nc1,1300,30,0,h1,h2\nc1,{start},nan,0,h1,h2\n",
        )
        with pytest.raises(MalformedRow, match=f"line 2: start_time {start} ") as exc:
            parse_cdr(p)
        assert exc.value.all_lines == [2, 4]

    def test_start_time_at_the_grid_limit_parses(self, tmp_path):
        rows = "\nc1,999999999999999999,30,0,h1,h2\nc1,-999999999999999999,30,0,h1,h2\n"
        p = write(tmp_path / "cdr.csv", CDR_HEADER + rows)
        assert parse_cdr(p).start_time.tolist() == [10**18 - 1, -(10**18 - 1)]

    def test_bad_boolean_collected_with_line_numbers(self, tmp_path):
        p = write(
            tmp_path / "cdr.csv",
            CDR_HEADER + "\nc1,1000,30,0,h1,h2\nc1,1300,30,yes,h1,h2\nc1,1600,x,0,h1,h2\n",
        )
        with pytest.raises(MalformedRow) as exc:
            parse_cdr(p)
        assert exc.value.line_no == 3
        assert exc.value.all_lines == [3, 4]

    def test_wrong_header_rejected(self, tmp_path):
        p = write(tmp_path / "cdr.csv", "cell,start,dur,drop,src,dst\n")
        with pytest.raises(MalformedHeader):
            parse_cdr(p)

    def test_extra_columns_rejected(self, tmp_path):
        p = write(tmp_path / "cdr.csv", CDR_HEADER + ",billing\n")
        with pytest.raises(MalformedHeader):
            parse_cdr(p)

    def test_order_preserved(self, tmp_path):
        rows = "\n".join(f"c1,{1000 + i},10,0,h{i},g{i}" for i in range(5))
        p = write(tmp_path / "cdr.csv", CDR_HEADER + "\n" + rows + "\n")
        calls = parse_cdr(p)
        assert calls.start_time.tolist() == [1000, 1001, 1002, 1003, 1004]
        assert calls.source_hash.tolist() == [f"h{i}" for i in range(5)]

    def test_parse_of_written_calls_equals_them_column_for_column(self, tmp_path):
        spec = default_spec(n_cells=3, days=1.0, window_len=1800, seed=99, anomaly_count=2, calls_per_window=4.0)
        calls = generate_series(spec)[0]
        write_cdr_csv(calls, tmp_path / "cdr.csv")
        parsed = parse_cdr(tmp_path / "cdr.csv")
        assert len(parsed) == len(calls) > 0
        assert calls.dropped.any() and not calls.dropped.all()
        for column in ("cell_id", "start_time", "duration", "dropped", "source_hash", "dest_hash"):
            assert getattr(parsed, column).tolist() == getattr(calls, column).tolist(), column
        assert parsed == calls


@pytest.fixture
def catalog():
    return {
        "rtt": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300),
        "load_ms": MetricInfo(MetricKind.KQI, Polarity.HIGHER_IS_WORSE, 300),
    }


class TestParseMetricCsv:
    HEADER = "cell_id,metric_name,window_start,value"

    def test_grid_fill_inserts_missing(self, tmp_path, catalog):
        p = write(
            tmp_path / "m.csv", f"{self.HEADER}\nc1,rtt,0,1.5\nc1,rtt,600,2.5\n"
        )
        (series,) = parse_metric_csv(p, MetricKind.KPI, catalog)
        assert series.points == [(0, 1.5), (300, None), (600, 2.5)]

    def test_empty_value_field_is_missing(self, tmp_path, catalog):
        p = write(tmp_path / "m.csv", f"{self.HEADER}\nc1,rtt,0,\n")
        (series,) = parse_metric_csv(p, MetricKind.KPI, catalog)
        assert series.points == [(0, None)]

    def test_duplicate_point_rejected(self, tmp_path, catalog):
        p = write(tmp_path / "m.csv", f"{self.HEADER}\nc1,rtt,0,1\nc1,rtt,0,2\n")
        with pytest.raises(DuplicatePoint):
            parse_metric_csv(p, MetricKind.KPI, catalog)

    def test_unknown_metric_rejected(self, tmp_path, catalog):
        p = write(tmp_path / "m.csv", f"{self.HEADER}\nc1,mystery,0,1\n")
        with pytest.raises(UnknownMetric):
            parse_metric_csv(p, MetricKind.KPI, catalog)

    def test_kind_mismatch_rejected(self, tmp_path, catalog):
        p = write(tmp_path / "m.csv", f"{self.HEADER}\nc1,load_ms,0,1\n")
        with pytest.raises(MalformedRow):
            parse_metric_csv(p, MetricKind.KPI, catalog)

    def test_misaligned_window_rejected(self, tmp_path, catalog):
        p = write(tmp_path / "m.csv", f"{self.HEADER}\nc1,rtt,150,1\n")
        with pytest.raises(MalformedRow):
            parse_metric_csv(p, MetricKind.KPI, catalog)

    def test_round_trip_exact(self, tmp_path, catalog):
        rng = random.Random(7)
        rows = [f"c{c},rtt,{w * 300},{rng.random() * 100!r}" for c in range(3) for w in range(0, 20, 2)]
        rows.append("c0,rtt,300,")  # explicit missing
        p = write(tmp_path / "m.csv", self.HEADER + "\n" + "\n".join(rows) + "\n")
        series = parse_metric_csv(p, MetricKind.KPI, catalog)
        out = tmp_path / "round.csv"
        write_metric_csv(series, out)
        again = parse_metric_csv(out, MetricKind.KPI, catalog)
        assert again == series
        # and a second serialization is byte-identical
        out2 = tmp_path / "round2.csv"
        write_metric_csv(again, out2)
        assert out.read_bytes() == out2.read_bytes()


# Each file has a valid row, then the row under test, then a row that is bad
# in a different way. Expected results were recorded from the row-by-row
# csv-module parser this parser replaced.
PARITY_BAD_ROWS = {
    "field_count": "c1,rtt,300",
    "unknown_metric": "c1,mystery,300,1.0",
    "kind_mismatch": "c1,load_ms,300,1.0",
    "non_integer_ws": "c1,rtt,3e2,1.0",
    "misaligned_ws": "c1,rtt,450,1.0",
    "non_numeric_value": "c1,rtt,300,1.0.0",
    "duplicate": "c1,rtt,0,2.0",
}
PARITY_ERRORS = {
    "field_count": (MalformedRow, 4, "line 4: expected 4 fields, got 3"),
    "unknown_metric": (UnknownMetric, None, "metric 'mystery' not present in the catalog"),
    "kind_mismatch": (MalformedRow, 4, "line 4: metric 'load_ms' is KQI, expected KPI"),
    "non_integer_ws": (MalformedRow, 4, "line 4: non-integer window_start '3e2'"),
    "misaligned_ws": (MalformedRow, 4, "line 4: window_start 450 not aligned to window_len 300"),
    "non_numeric_value": (MalformedRow, 4, "line 4: non-numeric value '1.0.0'"),
    "duplicate": (DuplicatePoint, None, "duplicate point for ('c1', 'rtt', 0)"),
}
PARITY_ACCEPTED = {
    "crlf_blank_no_trailing_newline": (
        "cell_id,metric_name,window_start,value\r\n\r\nc1,rtt,300,1.5\r\n\r\n"
        "c1,rtt,0,2.5\r\n\nc1,rtt,600,",
        [("c1", "rtt", [(0, 2.5), (300, 1.5), (600, None)])],
    ),
    "negative_unsorted_interleaved": (
        "cell_id,metric_name,window_start,value\nc2,rtt,-300,1.0\nc1,rtt,600,3.0\n"
        "c2,rtt,-900,2.0\nc1,loss,0,4.0\nc1,rtt,-600,5.0\nc2,rtt,-600,6.0\n",
        [
            ("c1", "loss", [(0, 4.0)]),
            ("c1", "rtt", [(-600, 5.0), (-300, None), (0, None), (300, None), (600, 3.0)]),
            ("c2", "rtt", [(-900, 2.0), (-600, 6.0), (-300, 1.0)]),
        ],
    ),
    "interior_gaps": (
        "cell_id,metric_name,window_start,value\nc1,rtt,0,1.0\nc1,rtt,1500,2.0\n"
        "c1,rtt,600,\nc1,loss,300,3.0\nc1,loss,1200,4.0\n",
        [
            ("c1", "loss", [(300, 3.0), (600, None), (900, None), (1200, 4.0)]),
            ("c1", "rtt", [(0, 1.0), (300, None), (600, None), (900, None), (1200, None), (1500, 2.0)]),
        ],
    ),
    "header_only": ("cell_id,metric_name,window_start,value\n", []),
    "long_keys_differing_at_the_end": (
        "cell_id,metric_name,window_start,value\n"
        f"{'x' * 70}a,rtt,0,1.0\n{'x' * 70}b,rtt,0,2.0\n{'x' * 70}b,rtt,300,3.0\n"
        f"{'x' * 70}a,rtt,300,4.0\n{'x' * 70}a,rtt,600,5.0\n",
        [
            ("x" * 70 + "a", "rtt", [(0, 1.0), (300, 4.0), (600, 5.0)]),
            ("x" * 70 + "b", "rtt", [(0, 2.0), (300, 3.0)]),
        ],
    ),
}


@pytest.fixture
def parity_catalog(catalog):
    return {**catalog, "loss": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300)}


class TestParserParity:
    HEADER = "cell_id,metric_name,window_start,value"

    @pytest.mark.parametrize("name", list(PARITY_BAD_ROWS))
    def test_first_bad_row_reported_like_row_reader(self, tmp_path, parity_catalog, name):
        names = list(PARITY_BAD_ROWS)
        later = PARITY_BAD_ROWS[names[(names.index(name) + 1) % len(names)]]
        text = f"{self.HEADER}\nc1,rtt,0,1.5\nc2,loss,600,0.5\n{PARITY_BAD_ROWS[name]}\n{later}\n"
        p = write(tmp_path / "m.csv", text)
        cls, line_no, message = PARITY_ERRORS[name]
        with pytest.raises(cls) as exc:
            parse_metric_csv(p, MetricKind.KPI, parity_catalog)
        assert type(exc.value) is cls
        assert getattr(exc.value, "line_no", None) == line_no
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", list(PARITY_ACCEPTED))
    def test_accepted_input_parses_like_row_reader(self, tmp_path, parity_catalog, name):
        text, expected = PARITY_ACCEPTED[name]
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode())
        series = parse_metric_csv(p, MetricKind.KPI, parity_catalog)
        assert [(s.cell_id, s.metric_name, s.points) for s in series] == expected

    @pytest.mark.parametrize("value", ["nan", "NaN", "-nan", "inf", "-inf", "INF", "Infinity", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, catalog, value):
        p = write(tmp_path / "m.csv", f"{self.HEADER}\nc1,rtt,0,1.5\nc1,rtt,300,{value}\n")
        with pytest.raises(MalformedRow) as exc:
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert exc.value.line_no == 3
        assert str(exc.value) == f"line 3: non-finite value {value!r}"

    @pytest.mark.parametrize(
        "row, message",
        [
            ('"c1",rtt,300,1.0', "unsupported character '\"'"),
            ("c1,rtt,300,1.0\x00", "unsupported character '\\x00'"),
            ("c1,rtt,300,1.0\r2", "unsupported character '\\r'"),
            ("c1,rtt,+300,1.0", "non-integer window_start '+300'"),
            ("c1,rtt, 300,1.0", "non-integer window_start ' 300'"),
            ("c1,rtt,3000000000000000000,1.0", "window_start 3000000000000000000 has more than 18 digits"),
            ("c1,rtt,300," + "1" * 41, "value longer than 40 bytes"),
        ],
    )
    def test_input_outside_grammar_is_malformed_row(self, tmp_path, catalog, row, message):
        p = tmp_path / "m.csv"
        p.write_bytes(f"{self.HEADER}\nc1,rtt,0,1.5\n{row}\nc1,rtt,600,1.0\n".encode())
        with pytest.raises(MalformedRow) as exc:
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert exc.value.line_no == 3
        assert str(exc.value) == f"line 3: {message}"

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789.eE+-_ abinfINF", min_size=1, max_size=12))
    def test_value_accepted_iff_float_accepts_it(self, tmp_path_factory, value):
        p = tmp_path_factory.mktemp("v") / "m.csv"
        p.write_bytes(f"{self.HEADER}\nc1,rtt,0,1.5\nc1,rtt,300,{value}\n".encode())
        catalog = {"rtt": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300)}
        try:
            expected = float(value)
        except ValueError:
            expected = None
        if expected is None or not math.isfinite(expected):
            with pytest.raises(MalformedRow) as exc:
                parse_metric_csv(p, MetricKind.KPI, catalog)
            assert exc.value.line_no == 3
        else:
            (series,) = parse_metric_csv(p, MetricKind.KPI, catalog)
            assert series.values[1:].tobytes() == np.array([expected]).tobytes()


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 2.2250738585072014e-308]),
)


@st.composite
def series_lists(draw):
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(["c1", "c2", "cell-9"]), st.sampled_from(["rtt", "loss"])),
            unique=True,
            max_size=4,
        )
    )
    out = []
    for cell_id, metric in sorted(keys):
        first = draw(st.integers(-10**6, 10**6)) * 300
        values = draw(st.lists(st.one_of(st.none(), finite_floats), min_size=1, max_size=20))
        out.append(
            MetricSeries(
                cell_id=cell_id,
                metric_name=metric,
                kind=MetricKind.KPI,
                polarity=Polarity.HIGHER_IS_WORSE,
                window_len=300,
                window_starts=first + 300 * np.arange(len(values)),
                values=np.array([np.nan if v is None else v for v in values], dtype=np.float64),
            )
        )
    return out


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(series_lists())
    def test_write_then_parse_is_bit_identical(self, tmp_path_factory, series):
        p = tmp_path_factory.mktemp("rt") / "m.csv"
        write_metric_csv(series, p)
        catalog = {
            "rtt": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300),
            "loss": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300),
        }
        parsed = parse_metric_csv(p, MetricKind.KPI, catalog)
        assert parsed == series
        for a, b in zip(parsed, series):
            assert a.values.tobytes() == np.where(np.isnan(b.values), np.nan, b.values).tobytes()


class TestMetricSeriesEquality:
    def make(self, values):
        return MetricSeries("c1", "rtt", MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300,
                            300 * np.arange(len(values)), np.array(values, dtype=np.float64))

    def test_nan_equals_nan(self):
        assert self.make([1.0, np.nan]) == self.make([1.0, np.nan])

    def test_comparison_is_bit_exact(self):
        assert self.make([0.0]) != self.make([-0.0])
        assert self.make([1.0]) != self.make([1.0 + 2**-52])
        assert self.make([1.0]) != self.make([1.0, 2.0])

    def test_metadata_compared(self):
        other = self.make([1.0])
        other.cell_id = "c2"
        assert self.make([1.0]) != other

    def test_points_view_uses_none_for_missing(self):
        assert self.make([1.5, np.nan]).points == [(0, 1.5), (300, None)]


class TestAggregateCdr:
    def test_drop_rate_is_fraction_of_attempts(self):
        records = cdr(
            ("c1", 10, 30, False, "a", "b"),
            ("c1", 20, 30, True, "a", "b"),
            ("c1", 290, 30, False, "a", "b"),
        )
        series = {s.metric_name: s for s in aggregate_cdr(records, 300)}
        assert series["drop_rate"].points == [(0, pytest.approx(1 / 3))]
        assert series["call_attempts"].points == [(0, 3.0)]

    def test_mean_duration(self):
        records = cdr(
            ("c1", 10, 10, False, "a", "b"),
            ("c1", 20, 30, False, "a", "b"),
        )
        series = {s.metric_name: s for s in aggregate_cdr(records, 300)}
        assert series["mean_duration"].points == [(0, 20.0)]

    def test_empty_input_gives_empty_list(self):
        assert aggregate_cdr(cdr(), 300) == []

    def test_empty_windows_are_zero_attempts_and_missing_rates(self):
        records = cdr(
            ("c1", 10, 10, False, "a", "b"),
            ("c1", 700, 10, True, "a", "b"),
        )
        series = {s.metric_name: s for s in aggregate_cdr(records, 300)}
        assert series["call_attempts"].points == [(0, 1.0), (300, 0.0), (600, 1.0)]
        assert series["drop_rate"].points == [(0, 0.0), (300, None), (600, 1.0)]

    def test_permutation_invariant(self):
        rng = random.Random(13)
        rows = [
            (f"c{rng.randrange(3)}", rng.randrange(0, 3000), rng.randrange(120), rng.random() < 0.1, "s", "d")
            for _ in range(200)
        ]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert aggregate_cdr(cdr(*rows), 300) == aggregate_cdr(cdr(*shuffled), 300)

    def test_attempt_totals_match_record_count(self):
        rng = random.Random(5)
        records = cdr(*[("c1", rng.randrange(0, 6000), 10, False, "s", "d") for _ in range(137)])
        series = {s.metric_name: s for s in aggregate_cdr(records, 300)}
        total = sum(v for _, v in series["call_attempts"].points if v is not None)
        assert total == 137

    def test_no_subscriber_hash_survives(self, tmp_path):
        records = cdr(
            ("c1", 10, 10, False, "secret-src-hash", "secret-dst-hash"),
            ("c1", 400, 25, True, "other-src", "other-dst"),
        )
        out = tmp_path / "agg.csv"
        write_metric_csv(aggregate_cdr(records, 300), out)
        text = out.read_text()
        for h in [*records.source_hash.tolist(), *records.dest_hash.tolist()]:
            assert h not in text


def test_catalog_round_trip(tmp_path):
    catalog = {
        "rtt": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300, (0.0, 100.0)),
        "load": MetricInfo(MetricKind.KQI, Polarity.LOWER_IS_WORSE, 600),
    }
    p = tmp_path / "catalog.json"
    save_catalog(catalog, p)
    assert load_catalog(p) == catalog
    doc = json.loads(p.read_text())
    assert doc["rtt"]["window_len_seconds"] == 300
    assert "value_range" not in doc["load"]


@pytest.mark.parametrize(
    "window_len, value_range",
    [(0, None), (-300, None), (300, (1.0, 1.0)), (300, (2.0, 1.0)), (300, (0.0, math.nan))],
)
def test_metric_info_rejects_bad_grid_and_range(window_len, value_range):
    with pytest.raises(ValueError):
        MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, window_len, value_range)
