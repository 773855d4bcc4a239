import decimal
import json
import math
import random
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellwatch import ingest
from cellwatch.errors import (
    CellwatchError,
    DuplicatePoint,
    GridTooLarge,
    MalformedHeader,
    MalformedRow,
    UnknownMetric,
)
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
from cellwatch.jsondoc import NotUtf8
from cellwatch.synth import default_spec, generate_series
from helpers import cdr_row_error, oracle_tails, row_error


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

    @pytest.mark.parametrize(
        "start, message",
        [
            ("+300", "non-integer start_time '+300'"),
            (" 600", "non-integer start_time ' 600'"),
            ("9_00", "non-integer start_time '9_00'"),
            ("٣٠٠", "non-integer start_time '٣٠٠'"),
            ("", "non-integer start_time ''"),
            ("0000000000000000000300", "start_time 0000000000000000000300 has more than 18 digits"),
        ],
    )
    def test_start_time_follows_the_window_start_grammar(self, tmp_path, start, message):
        p = write(tmp_path / "cdr.csv", CDR_HEADER + f"\nc1,1000,30,0,h1,h2\nc1,{start},30,0,h1,h2\n")
        with pytest.raises(MalformedRow) as exc:
            parse_cdr(p)
        assert str(exc.value) == f"line 3: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ('c1,300,1,0,"h,x",g', "unsupported character '\"'"),
            ("c1\x00,300,1,0,h,g", "unsupported character '\\x00'"),
            ("c1,300,1,0,h,g\rc1,600,1,0,h,g", "unsupported character '\\r'"),
            (f"c1,300,{'1' * 45},0,h,g", "duration longer than 40 bytes"),
        ],
    )
    def test_row_outside_the_metric_csv_grammar_is_malformed_row(self, tmp_path, line, message):
        p = write(tmp_path / "cdr.csv", f"{CDR_HEADER}\nc1,0,1,0,h,g\n{line}\n")
        with pytest.raises(MalformedRow) as exc:
            parse_cdr(p)
        assert str(exc.value) == f"line 3: {message}"

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

    def test_non_utf8_byte_is_named_with_its_file_offset(self, tmp_path):
        # a bad row first, then the bad byte past the text reader's first 8 KiB chunk
        rows = "".join(f"c1,{1000 + i},10,0,h{i},g{i}\n" for i in range(400))
        text = f"{CDR_HEADER}\nc1,1000,x,0,h,g\n{rows}".encode()
        at = text.index(b"\n", 9000) + 1
        p = tmp_path / "cdr.csv"
        p.write_bytes(text[:at] + b"\xff" + text[at:])
        with pytest.raises(NotUtf8) as exc:
            parse_cdr(p)
        assert str(exc.value) == f"{p}: not UTF-8 text at byte {at}: invalid start byte"

    def test_non_utf8_byte_outranks_a_bad_header(self, tmp_path):
        p = tmp_path / "cdr.csv"
        p.write_bytes(b"cell,start\n" + b"c1,1000,10,0,h,g\n" * 1000 + b"c1,\xe9\n")
        with pytest.raises(NotUtf8, match=f"at byte {11 + 17 * 1000 + 3}: invalid continuation byte"):
            parse_cdr(p)

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

    def test_grid_fill_beyond_the_limit_is_refused_before_allocating(self, tmp_path, catalog):
        # 10**15 windows between the two rows: far more than any machine can hold
        p = write(tmp_path / "m.csv", f"{self.HEADER}\nc1,rtt,0,1.0\nc1,rtt,300000000000000000,1.0\n")
        with pytest.raises(GridTooLarge, match="'c1', 'rtt'") as exc:
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert exc.value.key == ("c1", "rtt")

    def test_grid_fill_limit_counts_missing_windows_over_all_keys(self, tmp_path, catalog, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_GRID_FILL", 3)
        rows = "c1,rtt,0,1\nc1,rtt,600,\nc1,rtt,1200,2\nc2,rtt,0,1\nc2,rtt,600,1\n"
        p = write(tmp_path / "m.csv", f"{self.HEADER}\n{rows}")
        # c1 fills 300 and 900, c2 fills 300: 3 MISSING windows, at the limit
        assert [len(s.values) for s in parse_metric_csv(p, MetricKind.KPI, catalog)] == [5, 3]
        p = write(tmp_path / "m.csv", f"{self.HEADER}\n{rows}c2,rtt,1200,1\n")
        with pytest.raises(GridTooLarge, match="would add 4 MISSING windows, more than 3") as exc:
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert exc.value.key == ("c1", "rtt")

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

    def test_shuffled_rows_parse_to_the_written_series(self, tmp_path):
        spec = default_spec(n_cells=2, days=1.0, window_len=1800, seed=5, anomaly_count=2)
        _, _, kpi, catalog, _ = generate_series(spec)
        kpi[0].values[3] = np.nan  # an empty field
        in_order = tmp_path / "in_order.csv"
        write_metric_csv(kpi, in_order)
        header, *rows = in_order.read_text().splitlines()
        random.Random(5).shuffle(rows)
        shuffled = write(tmp_path / "shuffled.csv", "\n".join([header, *rows]) + "\n")
        reversed_keys = tmp_path / "reversed_keys.csv"  # each key's rows in order, the keys not
        write_metric_csv(kpi[::-1], reversed_keys)
        for p in (in_order, shuffled, reversed_keys):
            assert parse_metric_csv(p, MetricKind.KPI, catalog) == kpi, p.name

    @pytest.mark.parametrize(
        "rows, key",
        [
            # in order but for the repeat
            ("c1,rtt,0,1\nc1,rtt,300,2\nc1,rtt,300,3\nc2,rtt,0,1\n", ("c1", "rtt", 300)),
            # c2's repeat comes first in the file, c1's first in key order
            ("c2,rtt,0,1\nc2,rtt,0,2\nc1,rtt,300,1\nc1,rtt,300,2\n", ("c2", "rtt", 0)),
        ],
    )
    def test_repeated_point_named_first_in_file_order(self, tmp_path, catalog, rows, key):
        p = write(tmp_path / "m.csv", f"{self.HEADER}\n{rows}")
        with pytest.raises(DuplicatePoint) as exc:
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert exc.value.key == key

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
    "long_keys_differing_at_the_start": (
        "cell_id,metric_name,window_start,value\n"
        f"a{'x' * 70},rtt,0,1.0\nb{'x' * 70},rtt,0,2.0\nb{'x' * 70},rtt,300,3.0\n"
        f"a{'x' * 70},rtt,300,4.0\na{'x' * 70},rtt,600,5.0\n",
        [
            ("a" + "x" * 70, "rtt", [(0, 1.0), (300, 4.0), (600, 5.0)]),
            ("b" + "x" * 70, "rtt", [(0, 2.0), (300, 3.0)]),
        ],
    ),
}


FLOAT_LIKE_TEXT = st.text(alphabet="0123456789.eE+-_ abinfINF", min_size=1, max_size=12)


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
    @given(FLOAT_LIKE_TEXT)
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


class SmallBlocks:
    """Mixed into a test class, runs its tests with CSVs read in 7-byte blocks.

    Most lines are longer than 7 bytes, so most blocks hold one line.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_SIZE", 7)


class TestParseCdrInSmallBlocks(SmallBlocks, TestParseCdr):
    pass


class TestParseMetricCsvInSmallBlocks(SmallBlocks, TestParseMetricCsv):
    pass


class TestParserParityInSmallBlocks(SmallBlocks, TestParserParity):
    # Hypothesis runs a @given method from one test instance only, so this
    # class wraps the same test body again.
    test_value_accepted_iff_float_accepts_it = settings(max_examples=200, deadline=None)(
        given(FLOAT_LIKE_TEXT)(
            TestParserParity.test_value_accepted_iff_float_accepts_it.hypothesis.inner_test
        )
    )


def parse_outcome(path, catalog, block_size=None):
    """The series parse_metric_csv returns, or its error as (class, line_no, message)."""
    with pytest.MonkeyPatch.context() as mp:
        if block_size is not None:
            mp.setattr(ingest, "BLOCK_SIZE", block_size)
        try:
            return parse_metric_csv(path, MetricKind.KPI, catalog)
        except (CellwatchError, NotUtf8) as exc:
            return type(exc), getattr(exc, "line_no", None), str(exc)


def assert_same_in_every_block_size(path, catalog):
    """Every block size from 1 byte to the file's length parses like one block; returns that result."""
    whole = parse_outcome(path, catalog)
    for size in range(1, len(path.read_bytes()) + 1):
        assert parse_outcome(path, catalog, size) == whole, f"block size {size}"
    return whole


class CountingReader:
    """A binary file opened for reading that counts the bytes read from it."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)
        self.bytes_read = 0

    def readinto(self, buffer):
        got = self.fh.readinto(buffer)
        self.bytes_read += got
        return got

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestBlocks:
    HEADER = b"cell_id,metric_name,window_start,value\n"

    def parse_in(self, tmp_path, catalog, text):
        p = tmp_path / "m.csv"
        p.write_bytes(text)
        return assert_same_in_every_block_size(p, catalog)

    def test_key_run_spans_blocks(self, tmp_path, catalog):
        rows = b"".join(b"c1,rtt,%d,%d.5\n" % (300 * w, w) for w in range(12))
        (series,) = self.parse_in(tmp_path, catalog, self.HEADER + rows)
        assert series.points == [(300 * w, w + 0.5) for w in range(12)]

    def test_bad_row_first_in_its_block(self, tmp_path, catalog):
        good = b"c1,rtt,0,1.5\n"
        p = tmp_path / "m.csv"
        p.write_bytes(self.HEADER + good + b"c1,rtt,450,1.0\nc1,rtt,mystery\n")
        expected = (MalformedRow, 3, "line 3: window_start 450 not aligned to window_len 300")
        # the first read ends at the good row's line feed, so the bad row starts block 2
        assert parse_outcome(p, catalog, len(self.HEADER + good)) == expected
        assert assert_same_in_every_block_size(p, catalog) == expected

    def test_duplicate_across_blocks(self, tmp_path, catalog):
        # the misaligned last row comes after the duplicate, which is reported
        text = self.HEADER + b"c1,rtt,0,1\nc1,rtt,300,2\nc2,rtt,0,3\nc1,rtt,0,4\nc1,rtt,7,5\n"
        expected = (DuplicatePoint, None, "duplicate point for ('c1', 'rtt', 0)")
        assert self.parse_in(tmp_path, catalog, text) == expected

    def test_last_line_without_newline(self, tmp_path, catalog):
        (series,) = self.parse_in(tmp_path, catalog, self.HEADER + b"c1,rtt,0,1.5\nc1,rtt,600,2.5")
        assert series.points == [(0, 1.5), (300, None), (600, 2.5)]

    def test_crlf_rows(self, tmp_path, catalog):
        text = self.HEADER.replace(b"\n", b"\r\n") + b"c1,rtt,0,1.5\r\n\r\nc1,rtt,300,\r\nc1,rtt,600,2.5\r"
        (series,) = self.parse_in(tmp_path, catalog, text)
        assert series.points == [(0, 1.5), (300, None), (600, 2.5)]

    @pytest.mark.parametrize("text", [HEADER, HEADER.rstrip(b"\n"), HEADER.replace(b"\n", b"\r\n")])
    def test_header_only(self, tmp_path, catalog, text):
        assert self.parse_in(tmp_path, catalog, text) == []

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"", "got None"),
            (b"\n", "got []"),
            (
                b"cell_id,metric,window_start,value\nc1,rtt,0,1\n",
                "got ['cell_id', 'metric', 'window_start', 'value']",
            ),
        ],
    )
    def test_bad_header(self, tmp_path, catalog, text, message):
        cls, _, got = self.parse_in(tmp_path, catalog, text)
        assert cls is MalformedHeader and got.endswith(message)

    def test_non_utf8_byte_past_a_bad_row_and_the_first_block(self, tmp_path, catalog, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_SIZE", 64)
        rows = b"".join(b"c1,rtt,%d,1.0\n" % (300 * w) for w in range(1, 20))
        text = self.HEADER + b"c1,rtt,0,1.0.0\n" + rows
        at = text.index(b"\n", 150) + 1
        p = tmp_path / "m.csv"
        p.write_bytes(text[:at] + b"\xff" + text[at:])
        with pytest.raises(NotUtf8) as exc:
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert str(exc.value) == f"{p}: not UTF-8 text at byte {at}: invalid start byte"

    @pytest.mark.parametrize(
        "tail, reason",
        [(b"c1,rtt,300,\xc3", "unexpected end of data"), (b"c1,rtt,300,\xc3\n", "invalid continuation byte")],
    )
    def test_non_utf8_byte_outranks_every_other_error(self, tmp_path, catalog, tail, reason):
        # a bad header and a duplicate point come first
        text = b"cell_id,metric\nc1,rtt,0,1\nc1,rtt,0,1\n" + tail
        at = len(text) - len(tail) + len(b"c1,rtt,300,")
        cls, _, message = self.parse_in(tmp_path, catalog, text)
        assert (cls, message) == (NotUtf8, f"{tmp_path / 'm.csv'}: not UTF-8 text at byte {at}: {reason}")

    def test_short_row_ahead_of_a_long_window_start(self, tmp_path, catalog):
        # window_start digits are read right-aligned at the comma after them,
        # in a window as wide as the block's longest window_start
        text = self.HEADER + b"c,rtt,0,1\nd,rtt,300000000,2\n"
        series = self.parse_in(tmp_path, catalog, text)
        assert [(s.cell_id, s.points) for s in series] == [("c", [(0, 1.0)]), ("d", [(300000000, 2.0)])]

    def test_line_longer_than_many_blocks(self, tmp_path, catalog, monkeypatch):
        # each read adds to the line without copying or searching what came before
        monkeypatch.setattr(ingest, "BLOCK_SIZE", 16)
        cell_id = "c" * (1 << 21)
        p = tmp_path / "m.csv"
        p.write_bytes(self.HEADER + f"{cell_id},rtt,0,1.5\nc1,rtt,0,2.5\n".encode())
        began = time.perf_counter()
        series = parse_metric_csv(p, MetricKind.KPI, catalog)
        assert time.perf_counter() - began < 10
        assert [(s.cell_id, s.points) for s in series] == [("c1", [(0, 2.5)]), (cell_id, [(0, 1.5)])]

    def test_non_utf8_byte_stops_the_read(self, tmp_path, catalog, monkeypatch):
        # a binary file without line feeds is not read past its first bad byte
        monkeypatch.setattr(ingest, "BLOCK_SIZE", 64)
        p = tmp_path / "m.csv"
        p.write_bytes(self.HEADER + b"c1,rtt,0,\xff" + bytes(1 << 20))
        readers = []
        monkeypatch.setattr(ingest, "open", lambda *a: readers.append(CountingReader(*a)) or readers[-1], raising=False)
        with pytest.raises(NotUtf8, match=f"at byte {len(self.HEADER) + 9}: invalid start byte"):
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert [r.bytes_read for r in readers] == [64]

    def test_parse_holds_less_than_twice_the_file(self, tmp_path, monkeypatch):
        # A whole-file parse holds the file, six offset arrays per row and a
        # row x value-width byte matrix at once: about 3.9 times the file.
        _, _, kpi, catalog, _ = generate_series(default_spec(n_cells=6, seed=3))
        p = tmp_path / "kpi.csv"
        write_metric_csv(kpi, p)
        size = p.stat().st_size
        assert size > 4_000_000
        monkeypatch.setattr(ingest, "BLOCK_SIZE", 1 << 16)
        tracemalloc.start()
        try:
            series = parse_metric_csv(p, MetricKind.KPI, catalog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series == kpi
        assert peak < 2 * size, f"peak {peak} bytes for a {size}-byte file"

    def test_cdr_parse_holds_less_than_twice_its_output(self, tmp_path, monkeypatch):
        # A row-by-row parse holds a tuple of Python objects per call, about
        # 4.25 times the arrays it returns. The file is no bound: the arrays
        # take 2.7 times its size, as str arrays hold 4 bytes a character.
        calls = generate_series(default_spec(n_cells=6, seed=3, calls_per_window=4.0))[0]
        p = tmp_path / "cdr.csv"
        write_cdr_csv(calls, p)
        monkeypatch.setattr(ingest, "BLOCK_SIZE", 1 << 16)
        tracemalloc.start()
        try:
            parsed = parse_cdr(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == calls
        output = sum(column.nbytes for column in vars(parsed).values())
        assert peak < 2 * output, f"peak {peak} bytes for {output} bytes of arrays"


def in_worker():
    return threading.current_thread() is not threading.main_thread()


class WorkerLast:
    """Wraps a function that a block's parse calls once: in the worker thread, the
    call runs only after the caller's call for the block after it has returned.

    So the worker's block finishes last, and results taken in completion order
    come out of file order. The worker's i-th call waits for the caller's i-th.
    """

    def __init__(self, inner):
        self.inner = inner
        self.caller_done = threading.Semaphore(0)

    def __call__(self, *args):
        if not in_worker():
            out = self.inner(*args)
            self.caller_done.release()
            return out
        assert self.caller_done.acquire(timeout=10), "the caller parsed no block after the worker's"
        return self.inner(*args)


class TestTwoThreads:
    """The caller parses every other block and one worker thread the blocks in between.

    At BLOCK_SIZE 64, a file of 16-byte rows is read as blocks of line counts
    [2, 4, 4, ...]: the header and row 0, then four rows a block.
    """

    HEADER = b"cell_id,metric_name,window_start,value\n"

    @pytest.fixture(autouse=True)
    def blocks_of_64_bytes(self, monkeypatch):
        monkeypatch.setattr(ingest, "BLOCK_SIZE", 64)

    @pytest.fixture
    def threads_at_start(self):
        return threading.active_count()

    def write_rows(self, tmp_path, rows):
        p = tmp_path / "m.csv"
        p.write_bytes(self.HEADER + b"".join(rows))
        assert [bytes(d[ingest._LEAD : s]).count(b"\n") for d, s in ingest._blocks(p)] == [
            2,
            *[4] * ((len(rows) - 1) // 4),
        ], "rows do not fill whole blocks"
        return p

    @staticmethod
    def row(w, metric=b"rtt", offset=0):
        return b"c1,%s,%04d,1.0\n" % (metric, 300 * w + offset)

    @pytest.mark.parametrize("k", [0, 2])
    def test_error_of_block_k_outranks_a_different_error_in_block_k_plus_1(
        self, tmp_path, catalog, monkeypatch, threads_at_start, k
    ):
        bad = 0 if k == 0 else 4 * k - 3  # the first row of block k
        rows = [self.row(w) for w in range(4 * k + 5)]
        rows[bad] = self.row(bad, offset=150)
        rows[bad + (1 if k == 0 else 4)] = self.row(0, b"xyz")  # block k + 1
        p = self.write_rows(tmp_path, rows)
        monkeypatch.setattr(ingest, "_values", WorkerLast(ingest._values))
        with pytest.raises(MalformedRow) as exc:
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert str(exc.value) == f"line {bad + 2}: window_start {300 * bad + 150} not aligned to window_len 300"
        assert threading.active_count() == threads_at_start

    def test_exception_in_the_worker_reaches_the_caller_unchanged(
        self, tmp_path, catalog, monkeypatch, threads_at_start
    ):
        p = self.write_rows(tmp_path, [self.row(w) for w in range(9)])
        boom = RuntimeError("boom")
        locate = ingest._locate_rows

        def located(*args):
            if in_worker():
                raise boom
            return locate(*args)

        monkeypatch.setattr(ingest, "_locate_rows", located)
        with pytest.raises(RuntimeError) as exc:
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert exc.value is boom
        assert threading.active_count() == threads_at_start

    def test_not_utf8_in_a_later_block_is_raised_while_the_worker_parses(
        self, tmp_path, catalog, monkeypatch, threads_at_start
    ):
        rows = [self.row(0, offset=150), *(self.row(w) for w in range(1, 9))]
        rows[2] = rows[2].replace(b"1.0", b"\xff.0")  # in block 1, read while the worker parses block 0
        p = tmp_path / "m.csv"
        p.write_bytes(self.HEADER + b"".join(rows))
        parsing, release, busy = threading.Event(), threading.Event(), []
        locate, check = ingest._locate_rows, ingest._check_utf8

        def located(*args):
            if in_worker():
                parsing.set()
                assert release.wait(10), "the caller read no later block while the worker parsed"
            return locate(*args)

        def checked(*args, **kwargs):
            try:
                return check(*args, **kwargs)
            except NotUtf8:
                busy.append(parsing.wait(10) and not release.is_set())
                release.set()
                raise

        monkeypatch.setattr(ingest, "_locate_rows", located)
        monkeypatch.setattr(ingest, "_check_utf8", checked)
        at = len(self.HEADER) + 2 * 16 + len(b"c1,rtt,0600,")
        with pytest.raises(NotUtf8, match=f"at byte {at}: invalid start byte"):
            parse_metric_csv(p, MetricKind.KPI, catalog)
        assert busy == [True]
        assert threading.active_count() == threads_at_start

    def test_blocks_are_parsed_on_two_threads_and_taken_in_file_order(self, tmp_path, threads_at_start):
        p = self.write_rows(tmp_path, [self.row(w) for w in range(13)])
        threads = []

        def columns(data, rows):
            threads.append(threading.get_ident())
            return (rows.first_line + rows.line,)

        (lines,), error = ingest._read_rows(p, ingest.METRIC_HEADER, WorkerLast(columns))
        assert error is None
        assert len(threads) == 4 and len(set(threads)) == 2
        assert np.concatenate(lines).tolist() == list(range(2, 15))
        assert threading.active_count() == threads_at_start

    def test_cdr_columns_come_back_in_file_order(self, tmp_path, monkeypatch, threads_at_start):
        calls = cdr(*((f"c{i % 3}", 300 * i, i, i % 2, "aa", "bb") for i in range(18)))
        p = tmp_path / "cdr.csv"
        write_cdr_csv(calls, p)
        blocks = sum(1 for _ in ingest._blocks(p))
        assert blocks >= 4 and blocks % 2 == 0  # the worker's last block has a caller's block after it
        monkeypatch.setattr(ingest, "_values", WorkerLast(ingest._values))
        assert parse_cdr(p) == calls
        assert threading.active_count() == threads_at_start


# _key_runs may run in the worker: it numbers no keys, so no dict is shared.
def test_key_runs_name_their_keys_for_the_caller_to_number(tmp_path, catalog):
    p = tmp_path / "m.csv"
    p.write_bytes(TestTwoThreads.HEADER + b"c1,rtt,0,1\nc2,rtt,0,1\nc1,rtt,300,1\n")
    data, size = next(ingest._blocks(p))
    rows = ingest._locate_rows(data, size, ingest._LEAD + len(TestTwoThreads.HEADER), 2, 4)
    keys, windows, lengths = ingest._key_runs(data, rows, MetricKind.KPI, catalog)
    assert keys == [("c1", "rtt"), ("c2", "rtt"), ("c1", "rtt")]
    assert windows.tolist() == [300] * 3 and lengths.tolist() == [1] * 3


# Rows for generated files: good rows over three cells (one not ASCII), two
# metrics with colliding window starts and a third whose window starts have
# the most digits allowed, and rows that break each rule of the grammar.
def good_row(cell_id, metric_name, window, value):
    window_start = 300 * (window + 10**15 * (metric_name == "jitter"))
    return f"{cell_id},{metric_name},{window_start},{value}".encode()


GOOD_ROW = st.builds(
    good_row,
    st.sampled_from(["c1", "c2", "cé"]),
    st.sampled_from(["rtt", "loss", "jitter"]),
    st.integers(-3, 12),
    st.sampled_from(["", "1.5", "-0.0", "2e3", "7"]),
)
BAD_ROW = st.sampled_from(
    [row.encode() for row in PARITY_BAD_ROWS.values()]
    + [b'"c1",rtt,0,1', b"c1,rtt,0,1\r2", b"c1,rtt,+300,1", b"c1,rtt,0," + b"1" * 41]
    + [b"c1,rtt,0,\xff", b"c1,rtt,0,\xc3"]  # not UTF-8
)


@st.composite
def metric_files(draw):
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    header = draw(st.sampled_from([b"cell_id,metric_name,window_start,value"] * 4 + [b"cell_id,metric"]))
    rows = draw(st.lists(st.one_of(GOOD_ROW, GOOD_ROW, GOOD_ROW, BAD_ROW, st.just(b"")), max_size=8))
    return eol.join([header, *rows]) + draw(st.sampled_from([eol, b""]))


@settings(max_examples=60, deadline=None)
@given(metric_files())
@example(b"cell_id,metric_name,window_start,value\nc1,rtt,0,7\nc1,jitter,300000000000000000,7\n")
def test_every_block_size_parses_like_one_block(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("blocks") / "m.csv"
    p.write_bytes(text)
    catalog = {
        "rtt": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300),
        "loss": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300),
        "jitter": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300),
        "load_ms": MetricInfo(MetricKind.KQI, Polarity.HIGHER_IS_WORSE, 300),
    }
    assert_same_in_every_block_size(p, catalog)


# Field choices for rows checked against the scalar grammar, as (good, bad):
# each bad choice breaks a rule, and one row may draw several. Bytes below
# '-' other than the delimiters (tab, '!', '#', '+') sit inside fields.
ORACLE_CELLS = (["c1", "cé", "", "c\t#1!"], ["c1,x", ",c1,", '"c1"', "c\r1"])
ORACLE_METRICS = (["rtt", "loss"], ["mystery", "load_ms", "r\x00tt", "rtt!"])
ORACLE_VALUES = (
    ["1.5", "", "-2e3", "1_0", " 7", "\t7", "1e+5", "+1.5"],
    ["abc", "1.0.0", "nan", "-inf", "1e999", "1" * 41, "x" * 41, "1,5", '"1"', "!", "#1", "1\t5"],
)
ORACLE_EOLS = ([b"\n", b"\r\n"], [b"\r\r\n"])
ORACLE_CATALOG = {
    "rtt": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300),
    "loss": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 60),
    "load_ms": MetricInfo(MetricKind.KQI, Polarity.HIGHER_IS_WORSE, 300),
}


def oracle_window_starts(i):
    """window_start choices for row i; the integers are unique to the row, so no point repeats."""
    w = 300 * (i + 1)
    good = [f"{w}", f"-{w}", f"{w:018d}", f"{w + 60}"]  # the last is aligned for loss only
    bad = [f"{w + 7}", f"+{w}", f" {w}", "3e2", "", "-", "9_00", "٣٠٠", f"\t{w}", f"#{w}"]
    long = ["1" * 19, f"-{'9' * 19}", f"x{'1' * 19}", f"{'1' * 18}x", f"{'0' * 19}{w}"]
    return good, bad + long


@st.composite
def oracle_files(draw):
    """A metric CSV of 1 to 6 rows, and the error the scalar grammar names for its first bad row."""

    def pick(choices, one_in=5):  # bad once in one_in picks
        good, bad = choices
        return draw(st.sampled_from(draw(st.sampled_from([good] * (one_in - 1) + [bad]))))

    lines = [b"cell_id,metric_name,window_start,value\n"]
    for i in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            lines.append(pick(ORACLE_EOLS, 20))  # a blank line, or a stray CR
        fields = (ORACLE_CELLS, ORACLE_METRICS, oracle_window_starts(i), ORACLE_VALUES)
        lines.append(",".join(pick(choices) for choices in fields).encode() + pick(ORACLE_EOLS, 20))
    contents = [line.removesuffix(b"\n").removesuffix(b"\r") for line in lines]
    errors = [row_error(n, line, MetricKind.KPI, ORACLE_CATALOG) for n, line in enumerate(contents[1:], 2) if line]
    text = b"".join(lines)
    return text if draw(st.booleans()) else text.removesuffix(b"\n"), next((e for e in errors if e), None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(oracle_files())
@example(  # a non-finite value ahead of a non-numeric one in the same block
    (b"cell_id,metric_name,window_start,value\nc1,rtt,0,inf\nc1,rtt,300,abc\n", MalformedRow(2, "non-finite value 'inf'"))
)
def test_first_bad_row_named_as_the_scalar_grammar_names_it(tmp_path_factory, case):
    text, error = case
    p = tmp_path_factory.mktemp("oracle") / "m.csv"
    p.write_bytes(text)
    for block_size in (7, 40, ingest.BLOCK_SIZE):  # the size that ships, read before any patch
        outcome = parse_outcome(p, ORACLE_CATALOG, block_size)
        if error is None:
            assert isinstance(outcome, list), block_size
        else:
            assert outcome == (type(error), getattr(error, "line_no", None), str(error)), block_size


# Field choices for CDR rows checked against the scalar grammar, as (good, bad).
CDR_IDS = (["c1", "cé", "", "c\t#1!"], ["c1,x", '"c1"', "c\x001", "c\r1"])
CDR_START_TIMES = (
    ["300", "-300", "0", f"{300:018d}", "9" * 18],
    ["+300", " 600", "3e2", "", "-", "9_00", "٣٠٠", "1" * 19, f"x{'1' * 19}", f"{'0' * 19}300", "\t300", "!300"],
)
CDR_DURATIONS = (
    ["30", "1.5", "0", "-0", " 7", "1_0", "5e-324", "1e+300", "\t7", "1e+5", "+1.5"],
    ["", "-5", "-0.5", "abc", "1.0.0", "nan", "-INF", "1e999", "1" * 41, "x" * 41, "٣٠٠", '"1"', "!", "#1", "1\t5"],
)
CDR_DROPPED = (["0", "1"], ["", "yes", "01", "2", "1 "])
CDR_FIELDS = (CDR_IDS, CDR_START_TIMES, CDR_DURATIONS, CDR_DROPPED, CDR_IDS, CDR_IDS)
# (field, bad text) pairs: a row draws up to two, so one row may break two rules
CDR_FAULTS = [(i, text) for i, (_, bad) in enumerate(CDR_FIELDS) for text in bad]
CDR_EOLS = st.sampled_from([b"\n", b"\r\n"] * 10 + [b"\r\r\n"])  # a stray CR once in 21 line ends


@st.composite
def cdr_oracle_files(draw):
    """A CDR of 1 to 6 rows, and what the scalar grammar makes of it: the calls, or its first bad row's error."""
    lines = [CDR_HEADER.encode() + b"\n"]
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            lines.append(draw(CDR_EOLS))  # a blank line
        fields = [draw(st.sampled_from(good)) for good, _ in CDR_FIELDS]
        for i, text in draw(st.lists(st.sampled_from(CDR_FAULTS), max_size=2)):
            fields[i] = text
        lines.append(",".join(fields).encode() + draw(CDR_EOLS))
    rows = [line.removesuffix(b"\n").removesuffix(b"\r") for line in lines[1:]]
    rows = [(n, row) for n, row in enumerate(rows, 2) if row]
    error = next((e for e in (cdr_row_error(n, row) for n, row in rows) if e), None)
    if error is None:
        fields = [row.decode().split(",") for _, row in rows]
        expected = cdr(*((c, int(t), float(d), flag == "1", a, b) for c, t, d, flag, a, b in fields))
    else:
        expected = (MalformedRow, error.line_no, str(error))
    text = b"".join(lines)
    return text if draw(st.booleans()) else text.removesuffix(b"\n"), expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cdr_oracle_files())
@example((f"{CDR_HEADER}\nc1,0,1,01,h,g\n".encode(), (MalformedRow, 2, "line 2: dropped must be 0 or 1, got '01'")))
def test_first_bad_cdr_row_named_as_the_scalar_grammar_names_it(tmp_path_factory, case):
    text, expected = case
    p = tmp_path_factory.mktemp("cdr_oracle") / "cdr.csv"
    p.write_bytes(text)
    for block_size in (7, 40, ingest.BLOCK_SIZE):  # the size that ships, read before any patch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "BLOCK_SIZE", block_size)
            try:
                outcome = parse_cdr(p)
            except MalformedRow as exc:
                outcome = (type(exc), exc.line_no, str(exc))
        assert outcome == expected, block_size


@st.composite
def dotted_digits(draw):
    """1 to 20 digits, leading zeros included, with a dot anywhere or none, and a sign or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=20))
    dot = draw(st.integers(-1, len(digits)))  # -1: no dot
    text = digits if dot < 0 else f"{digits[:dot]}.{digits[dot:]}"
    return draw(st.sampled_from(["", "-"])) + text


@st.composite
def near_midpoints(draw):
    """15 to 19 significant digits, rounded down or up from the midpoint of two adjacent doubles."""
    low = draw(st.floats(min_value=2.0**-20, max_value=2.0**63))
    if draw(st.booleans()):  # the midpoint above a power of two, or the one below it
        low = math.ldexp(0.5, math.frexp(low)[1])
        low = math.nextafter(low, 0) if draw(st.booleans()) else low
    with decimal.localcontext() as ctx:
        ctx.prec = 200
        mid = (decimal.Decimal(low) + decimal.Decimal(math.nextafter(low, math.inf))) / 2
        digits = draw(st.integers(15, 19))
        rounding = draw(st.sampled_from([decimal.ROUND_DOWN, decimal.ROUND_UP]))
        text = format(mid.quantize(decimal.Decimal(1).scaleb(mid.adjusted() - digits + 1), rounding), "f")
    return draw(st.sampled_from(["", "-"])) + text


VALUE_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    dotted_digits(),
    near_midpoints(),
    st.sampled_from(["-0", "-0.0"]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(VALUE_TEXTS, min_size=1, max_size=60))
@example(["9007199254740993", "9007199254740991.5", "1.000000000000000111", "0000.5000"])
@example(["0.12345678901234567", "0.123456789012345678", "-1234567890123456789", "12345678901234567890"])
@example(["2268.044626227658"])  # 17 bytes whose long-double quotient is a midpoint
def test_every_value_is_float_of_its_field(tmp_path_factory, texts):
    p = tmp_path_factory.mktemp("values") / "m.csv"
    rows = "".join(f"c1,rtt,{300 * i},{t}\n" for i, t in enumerate(texts))
    p.write_text(f"cell_id,metric_name,window_start,value\n{rows}")
    catalog = {"rtt": MetricInfo(MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 300)}
    expected = np.array([float(t) for t in texts]).tobytes()
    for block_size in (7, 40, ingest.BLOCK_SIZE):  # the size that ships, read before any patch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "BLOCK_SIZE", block_size)
            (series,) = parse_metric_csv(p, MetricKind.KPI, catalog)
        assert series.values.tobytes() == expected, block_size


@st.composite
def tail_cases(draw):
    """A block buffer that starts with ``limit`` zero bytes, as the readers' buffers do, and fields in its content."""
    limit = draw(st.integers(1, 64))
    content = draw(st.binary(max_size=160))
    buf = bytes(limit) + content
    his, n_bytes = [], []
    for _ in range(draw(st.integers(0, 8))):  # no field: an empty hi
        lo = draw(st.one_of(st.just(limit), st.integers(limit, len(buf))))  # the first content byte, or any
        hi = draw(st.integers(lo, len(buf)))
        his.append(hi)
        n_bytes.append(hi - lo)
    fill = draw(st.sampled_from([0, ord("0"), ord(" ")]))
    writable = draw(st.booleans())  # baseline._int_column passes a read-only buffer
    array = np.frombuffer(bytearray(buf) if writable else buf, dtype=np.uint8)
    return array, np.array(his, dtype=np.int64), np.array(n_bytes, dtype=np.int64), limit, fill


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tail_cases())
def test_tails_gathers_what_a_sliding_window_gathers(case):
    buf, hi, n_bytes, limit, fill = case
    got = ingest._tails(buf, hi, n_bytes, limit, fill)
    expected = oracle_tails(buf, hi, n_bytes, limit, fill)
    assert got.dtype == np.uint8 and got.shape == expected.shape
    assert got.flags.c_contiguous and got.flags.writeable  # the parsers step through rows and edit them in place
    assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 19).flatmap(lambda width: st.lists(st.text("0123456789", min_size=width, max_size=width))))
def test_horner_reads_each_column_as_its_decimal_number(numbers):
    width = len(numbers[0]) if numbers else 1
    digits = np.array([[int(c) for c in n] for n in numbers], dtype=np.uint8).reshape(-1, width).T.copy()
    assert ingest._horner(digits).tolist() == [int(n) for n in numbers]


def test_cast_only_route_parses_like_the_plain_decimal_route(tmp_path, monkeypatch):
    # Where long double division is not exact, every value goes through the cast.
    calls, _, kpi, catalog, _ = generate_series(default_spec(n_cells=2, seed=4, anomaly_count=2, calls_per_window=4.0))
    write_metric_csv(kpi, tmp_path / "kpi.csv")
    write_cdr_csv(calls, tmp_path / "cdr.csv")
    parsed = parse_metric_csv(tmp_path / "kpi.csv", MetricKind.KPI, catalog), parse_cdr(tmp_path / "cdr.csv")
    monkeypatch.setattr(ingest, "_EXACT_DIVISION", False)
    cast = parse_metric_csv(tmp_path / "kpi.csv", MetricKind.KPI, catalog), parse_cdr(tmp_path / "cdr.csv")
    assert parsed == cast == (kpi, calls)
    assert [s.values.tobytes() for s in parsed[0]] == [s.values.tobytes() for s in cast[0]]
    assert parsed[1].duration.tobytes() == cast[1].duration.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, 1e16, 1e300, 1.7976931348623157e308]),
        ),
        max_size=12,
    )
)
@example([-0.0, 1e300])
def test_written_calls_parse_back_to_them(tmp_path_factory, durations):
    n = len(durations)
    calls = CdrCalls(["c1"] * n, 300 * np.arange(n), durations, np.arange(n) % 2 == 1, ["h"] * n, ["g"] * n)
    p = tmp_path_factory.mktemp("cdr_rt") / "cdr.csv"
    write_cdr_csv(calls, p)
    assert parse_cdr(p) == calls


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

    def test_grid_fill_beyond_the_limit_is_refused_before_allocating(self):
        records = cdr(
            ("c0", 10, 10, False, "a", "b"),
            ("c1", 10, 10, False, "a", "b"),
            ("c1", 300000000000000000, 10, False, "a", "b"),
        )
        with pytest.raises(GridTooLarge, match="'c1' alone") as exc:
            aggregate_cdr(records, 300)
        assert exc.value.key == "c1"

    def test_grid_fill_limit_counts_empty_windows(self, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_GRID_FILL", 2)
        calls = [("c1", t, 10, False, "a", "b") for t in (0, 10, 20, 900, 910)]
        # windows 0 and 900 hold calls, 300 and 600 are filled: at the limit
        series = aggregate_cdr(cdr(*calls), 300)
        assert series[0].points == [(0, 3.0), (300, 0.0), (600, 0.0), (900, 2.0)]
        with pytest.raises(GridTooLarge, match="would add 3 MISSING windows, more than 2"):
            aggregate_cdr(cdr(*calls, ("c1", 1500, 10, False, "a", "b")), 300)

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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(["c1", "c10", "c2", "b", ""]), min_size=1, max_size=40))
    def test_ids_interned_by_runs_as_unique_interns_them(self, ids):
        array = np.array(ids)
        cells, inverse = ingest._intern(array)
        expected_cells, expected_inverse = np.unique(array, return_inverse=True)
        assert np.array_equal(cells, expected_cells) and cells.dtype == expected_cells.dtype
        assert np.array_equal(inverse, expected_inverse) and inverse.dtype == expected_inverse.dtype

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
