"""Telemetry ingestion: CDR parsing, metric CSV parsing, cell-level aggregation.

Per-call records are held in memory as one ``CdrCalls`` of parallel arrays,
as ``synth`` generates them and ``parse_cdr`` reads them. ``aggregate_cdr``
reduces them to cell-level series and drops every per-user field, so
downstream code, the fog simulator included, only ever reads aggregates.
Subscriber endpoints are accepted as opaque hashes only; raw numbers are
never part of the schema.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CellwatchError,
    DuplicatePoint,
    GridTooLarge,
    MalformedHeader,
    MalformedRow,
    UnknownMetric,
)
from .jsondoc import decode, encode

# In-memory marker for a missing window value; the CSV form is an empty field.
MISSING = math.nan

# At most this many MISSING windows are added by the grid fill of one parse or
# aggregation; a larger fill is refused before its grid is allocated.
MAX_GRID_FILL = 2**24

CDR_HEADER = ["cell_id", "start_time", "duration", "dropped", "source_hash", "dest_hash"]
METRIC_HEADER = ["cell_id", "metric_name", "window_start", "value"]


class MetricKind(str, Enum):
    KQI = "KQI"
    KPI = "KPI"


class Polarity(str, Enum):
    HIGHER_IS_WORSE = "HIGHER_IS_WORSE"
    LOWER_IS_WORSE = "LOWER_IS_WORSE"


@dataclass(frozen=True)
class MetricInfo:
    """Catalog entry: how a metric is classified and gridded.

    ``value_range``, when declared, pins the histogram bounds used for
    baseline sketches so that models fitted on different data partitions
    merge exactly.
    """

    kind: MetricKind
    polarity: Polarity
    window_len: int = field(metadata={"json": "window_len_seconds"})
    value_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.window_len <= 0:
            raise ValueError("window_len_seconds must be > 0")
        if self.value_range is not None and not self.value_range[0] < self.value_range[1]:
            raise ValueError(f"value_range {list(self.value_range)} must have lo < hi")


Catalog = dict[str, MetricInfo]


def _same_floats(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-exact float array equality in which NaN equals NaN."""
    if a.shape != b.shape:
        return False
    return np.array_equal(
        np.where(np.isnan(a), np.nan, a).view(np.int64),
        np.where(np.isnan(b), np.nan, b).view(np.int64),
    )


@dataclass(eq=False)
class CdrCalls:
    """Per-call records as parallel arrays in record order; ``len()`` is the call count.

    ``cell_id``, ``source_hash`` and ``dest_hash`` are str arrays,
    ``start_time`` int64, ``duration`` float64 and ``dropped`` bool.
    ``CdrCalls()`` holds no calls.
    """

    cell_id: np.ndarray = ()
    start_time: np.ndarray = ()
    duration: np.ndarray = ()
    dropped: np.ndarray = ()
    source_hash: np.ndarray = ()
    dest_hash: np.ndarray = ()

    def __post_init__(self) -> None:
        for name, dtype in zip(list(vars(self)), (str, np.int64, np.float64, bool, str, str)):
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def __len__(self) -> int:
        return len(self.cell_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CdrCalls):
            return NotImplemented
        return all(
            _same_floats(a, b) if a.dtype == np.float64 else np.array_equal(a, b)
            for a, b in zip(vars(self).values(), vars(other).values())
        )


@dataclass(eq=False)
class MetricSeries:
    """One metric of one cell on a fixed window grid, as two parallel arrays.

    ``window_starts`` (int64) is strictly increasing and every entry is a
    multiple of ``window_len``; ``values`` (float64) holds one value per
    window, NaN marking MISSING. Parsed and generated series are
    grid-complete, so interior gaps appear as NaN; cleaned series keep only
    the surviving windows.
    """

    cell_id: str
    metric_name: str
    kind: MetricKind
    polarity: Polarity
    window_len: int
    window_starts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.window_starts = np.asarray(self.window_starts, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.window_starts.shape != self.values.shape:
            raise ValueError("window_starts and values must be 1-D arrays of equal length")

    @property
    def points(self) -> list[tuple[int, float | None]]:
        """(window_start, value) pairs with None for MISSING; a fresh list per call."""
        return [
            (ws, None if v != v else v)
            for ws, v in zip(self.window_starts.tolist(), self.values.tolist())
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricSeries):
            return NotImplemented
        return (
            (self.cell_id, self.metric_name, self.kind, self.polarity, self.window_len)
            == (other.cell_id, other.metric_name, other.kind, other.polarity, other.window_len)
            and np.array_equal(self.window_starts, other.window_starts)
            and _same_floats(self.values, other.values)
        )


# KQI series derived from CDR aggregation. Polarities are fixed by what the
# quantity means, not configurable: fewer attempts, more drops, shorter calls
# all indicate degradation.
CDR_DERIVED_METRICS: dict[str, Polarity] = {
    "call_attempts": Polarity.LOWER_IS_WORSE,
    "drop_rate": Polarity.HIGHER_IS_WORSE,
    "mean_duration": Polarity.LOWER_IS_WORSE,
}


def load_catalog(path: str | Path) -> Catalog:
    """Read a metric catalog JSON file (metric name -> kind/polarity/grid)."""
    with open(path, encoding="utf-8") as fh:
        return decode(Catalog, json.load(fh))


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog; an entry without a value_range omits the key."""
    entries = encode(catalog).items()
    doc = {name: {k: v for k, v in entry.items() if v is not None} for name, entry in entries}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def parse_cdr(path: str | Path) -> CdrCalls:
    """Parse a CDR CSV file, preserving row order.

    Row errors are collected across the whole file; if any row fails the
    parse fails with a MalformedRow naming the first bad line. Like the
    metric grammar, it takes start times of at most 18 digits and only
    finite durations.
    """
    rows: list[tuple[str, int, float, bool, str, str]] = []
    bad: list[tuple[int, str]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CDR_HEADER:
            raise MalformedHeader(f"expected columns {CDR_HEADER}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CDR_HEADER):
                bad.append((line_no, f"expected {len(CDR_HEADER)} fields, got {len(row)}"))
                continue
            cell_id, start_s, dur_s, dropped_s, src, dst = row
            try:
                start_time = int(start_s)
            except ValueError:
                bad.append((line_no, f"non-integer start_time {start_s!r}"))
                continue
            if abs(start_time) >= 10**_MAX_WS_DIGITS:
                bad.append((line_no, f"start_time {start_s} has more than {_MAX_WS_DIGITS} digits"))
                continue
            try:
                duration = float(dur_s)
            except ValueError:
                bad.append((line_no, f"non-numeric duration {dur_s!r}"))
                continue
            if not math.isfinite(duration):
                bad.append((line_no, f"non-finite duration {dur_s!r}"))
                continue
            if duration < 0:
                bad.append((line_no, f"negative duration {duration}"))
                continue
            if dropped_s not in ("0", "1"):
                bad.append((line_no, f"dropped must be 0 or 1, got {dropped_s!r}"))
                continue
            rows.append((cell_id, start_time, duration, dropped_s == "1", src, dst))
    if bad:
        raise MalformedRow(bad[0][0], bad[0][1], all_lines=[ln for ln, _ in bad])
    return CdrCalls(*zip(*rows)) if rows else CdrCalls()


def _check_grid_fill(keys: list, fill: list[int]) -> None:
    """Raise GridTooLarge if the per-key MISSING fill adds up to more than MAX_GRID_FILL."""
    total = sum(fill)
    if total > MAX_GRID_FILL:
        worst = max(range(len(fill)), key=fill.__getitem__)
        raise GridTooLarge(keys[worst], fill[worst], total, MAX_GRID_FILL)


def write_cdr_csv(calls: CdrCalls, path: str | Path) -> None:
    lines = [",".join(CDR_HEADER)]
    for cell_id, start, dur, dropped, src, dst in zip(*(c.tolist() for c in vars(calls).values())):
        lines.append(f"{cell_id},{start},{int(dur) if dur.is_integer() else dur},{int(dropped)},{src},{dst}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# Metric CSV grammar limits. Windows of at most this many bytes are cut out
# of the file buffer per row, so the limits also bound the parser's memory.
_MAX_WS_DIGITS = 18  # |window_start| < 10**18: fits int64 with room for grid arithmetic (CDR start_time too)
_MAX_VALUE_BYTES = 40  # repr() of a float64 needs at most 24
_MAX_KEY_WINDOW = 64  # longer (cell_id, metric) keys are compared byte for byte
_PAD = max(_MAX_VALUE_BYTES, _MAX_KEY_WINDOW) + 1
_WS_RE = re.compile(rb"-?[0-9]+")
_NL, _CR, _COMMA, _MINUS, _ZERO = (ord(c) for c in "\n\r,-0")


def _read_padded(path: str | Path) -> tuple[bytearray, int]:
    """File bytes followed by zero padding, and the content size.

    The padding lets a fixed-width window start at any content byte and
    leaves room for a final newline.
    """
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size + _PAD + 1)
        size = fh.readinto(data)
        rest = fh.read()  # the file grew, or is not a regular file
    if rest:
        data[size:] = rest + bytes(_PAD + 1)
        size += len(rest)
    return data, size


def _windows(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """(rows, width) uint8 copy of buf[start:start+width], zeroed past each length."""
    out = sliding_window_view(buf, width)[starts]
    out *= np.arange(width) < lengths[:, None]
    return out


def _row_error(
    line_no: int, line: bytes, kind: MetricKind, catalog: Catalog
) -> CellwatchError | None:
    """The first thing wrong with one data row, checked in column order.

    This is the scalar statement of the row grammar; ``parse_metric_csv``
    flags rows with array operations and calls this on the first flagged
    line to name the error.
    """
    for ch in (b'"', b"\0", b"\r"):
        if ch in line:
            return MalformedRow(line_no, f"unsupported character {ch.decode()!r}")
    fields = line.split(b",")
    if len(fields) != len(METRIC_HEADER):
        return MalformedRow(line_no, f"expected {len(METRIC_HEADER)} fields, got {len(fields)}")
    _, metric_b, ws_b, value_b = fields
    metric_name = metric_b.decode("utf-8")
    info = catalog.get(metric_name)
    if info is None:
        return UnknownMetric(metric_name)
    if info.kind != kind:
        return MalformedRow(
            line_no, f"metric {metric_name!r} is {info.kind.value}, expected {kind.value}"
        )
    ws_s = ws_b.decode("utf-8")
    if not _WS_RE.fullmatch(ws_b):
        return MalformedRow(line_no, f"non-integer window_start {ws_s!r}")
    if len(ws_b.lstrip(b"-")) > _MAX_WS_DIGITS:
        return MalformedRow(line_no, f"window_start {ws_s} has more than {_MAX_WS_DIGITS} digits")
    ws = int(ws_b)
    if ws % info.window_len != 0:
        return MalformedRow(
            line_no, f"window_start {ws} not aligned to window_len {info.window_len}"
        )
    if value_b:
        value_s = value_b.decode("utf-8")
        if len(value_b) > _MAX_VALUE_BYTES:
            return MalformedRow(line_no, f"value longer than {_MAX_VALUE_BYTES} bytes")
        try:
            value = float(value_b)
        except ValueError:
            return MalformedRow(line_no, f"non-numeric value {value_s!r}")
        if not math.isfinite(value):
            return MalformedRow(line_no, f"non-finite value {value_s!r}")
    return None


@dataclass
class _Rows:
    """Byte offsets of the data rows that come before the first bad line.

    Lines are counted from 0 after the header. ``newlines`` holds every
    line's terminating LF and ``bad_line`` the first line known to be bad
    (the line count when none is). The row arrays are parallel: the row's
    line, the start and end of its content (CR LF or LF excluded) and its
    three commas.
    """

    newlines: np.ndarray
    bad_line: int
    line: np.ndarray
    start: np.ndarray
    end: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray

    def __len__(self) -> int:
        return len(self.line)

    def truncate(self, k: int) -> None:
        """Drop row k, whose line is now the first bad one, and all later rows."""
        self.bad_line = int(self.line[k])
        for name in ("line", "start", "end", "c1", "c2", "c3"):
            setattr(self, name, getattr(self, name)[:k])

    def cut(self, bad: np.ndarray) -> None:
        """Truncate at the first row flagged in ``bad``, if any."""
        if bad.any():
            self.truncate(int(np.argmax(bad)))


def _locate_rows(data: bytearray, size: int, body: int) -> _Rows:
    """Find lines and commas; flag unsupported bytes and wrong field counts."""
    buf = np.frombuffer(data, dtype=np.uint8)
    text = buf[body:size]
    delims = np.flatnonzero((text == _COMMA) | (text == _NL)) + body
    nl_at = np.flatnonzero(buf[delims] == _NL)
    newlines = delims[nl_at]
    starts = np.empty_like(newlines)
    starts[:1] = body
    starts[1:] = newlines[:-1] + 1
    ends = newlines.copy()
    bad_pos = [data.find(b'"', body, size), data.find(b"\0", body, size)]
    if data.find(b"\r", body, size) >= 0:
        crs = np.flatnonzero(text == _CR) + body
        stray = crs[buf[crs + 1] != _NL]
        bad_pos.append(int(stray[0]) if len(stray) else -1)
        ends -= (ends > starts) & (buf[ends - 1] == _CR)
    bad_line = min([int(np.searchsorted(newlines, p)) for p in bad_pos if p >= 0] + [len(newlines)])

    blank = ends == starts
    n_commas = np.diff(nl_at, prepend=-1) - 1
    wrong_count = ~blank & (n_commas != len(METRIC_HEADER) - 1)
    if wrong_count.any():
        bad_line = min(bad_line, int(np.argmax(wrong_count)))
    line = np.flatnonzero(~blank[:bad_line])
    last = nl_at[line]
    return _Rows(
        newlines=newlines,
        bad_line=bad_line,
        line=line,
        start=starts[line],
        end=ends[line],
        c1=delims[last - 3],
        c2=delims[last - 2],
        c3=delims[last - 1],
    )


def _key_runs(
    data: bytearray, rows: _Rows, kind: MetricKind, catalog: Catalog
) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """Group rows into runs of one (cell, metric) key and check each metric.

    Returns the keys (index = key id), the key id of each run and the run
    lengths. A run whose metric is unknown or of the wrong kind cuts the rows.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n = len(rows)
    key_len = rows.c2 - rows.start
    new_run = np.ones(n, dtype=bool)
    if n > 1:
        width = int(min(key_len.max(), _MAX_KEY_WINDOW))
        keys = _windows(buf, rows.start, key_len, width).view(f"S{width}").ravel()
        new_run[1:] = (key_len[1:] != key_len[:-1]) | (keys[1:] != keys[:-1])
        for i in np.flatnonzero(~new_run & (key_len > width)).tolist():
            here = data[rows.start[i] : rows.c2[i]]
            new_run[i] = here != data[rows.start[i - 1] : rows.c2[i - 1]]
    run_first = np.flatnonzero(new_run)

    key_ids: dict[tuple[str, str], int] = {}
    run_key: list[int] = []
    for i, a, b, e in zip(
        run_first.tolist(),
        rows.start[run_first].tolist(),
        rows.c1[run_first].tolist(),
        rows.c2[run_first].tolist(),
    ):
        metric_name = data[b + 1 : e].decode("utf-8")
        info = catalog.get(metric_name)
        if info is None or info.kind != kind:
            rows.truncate(i)
            break
        key = (data[a:b].decode("utf-8"), metric_name)
        run_key.append(key_ids.setdefault(key, len(key_ids)))
    run_len = np.diff(run_first[: len(run_key)], append=len(rows))
    return list(key_ids), np.array(run_key, dtype=np.int64), run_len


def _window_starts(buf: np.ndarray, rows: _Rows, window_len: np.ndarray) -> np.ndarray:
    """Parse window_start: an optional '-' and 1..18 digits, aligned to window_len."""
    n = len(rows)
    neg = buf[rows.c2 + 1] == _MINUS
    n_digits = rows.c3 - (rows.c2 + 1) - neg
    good = (n_digits >= 1) & (n_digits <= _MAX_WS_DIGITS)
    ws = np.zeros(n, dtype=np.int64)
    if n:
        # Right-aligned at the comma after the field; bytes before it count as 0.
        width = int(min(max(n_digits.max(), 1), _MAX_WS_DIGITS))
        digits = sliding_window_view(buf, width)[rows.c3 - width] - np.uint8(_ZERO)
        digits *= np.arange(width) >= width - n_digits[:, None]
        good &= (digits <= 9).all(axis=1)
        for col in range(width):
            ws *= 10
            ws += digits[:, col]
    np.negative(ws, out=ws, where=neg)
    rows.cut(~good | (ws % window_len != 0))
    return ws[: len(rows)]


def _values(buf: np.ndarray, rows: _Rows) -> np.ndarray:
    """Parse value fields: empty is MISSING (NaN), else a finite float() literal.

    All fields go through one bytes-to-float64 cast, which accepts exactly
    the bytes ``float()`` accepts and rounds the same way.
    """
    n = len(rows)
    value_len = rows.end - rows.c3 - 1
    present = value_len > 0
    values = np.full(n, np.nan)
    if not present.any():
        return values
    bad = value_len > _MAX_VALUE_BYTES
    width = int(min(value_len.max(), _MAX_VALUE_BYTES))
    raw = _windows(buf, rows.c3 + 1, np.where(bad, 0, value_len), width)
    raw[~present | bad, 0] = _ZERO  # placeholder so the cast succeeds
    strings = raw.view(f"S{width}").ravel()
    try:
        with np.errstate(over="ignore"):
            parsed = strings.astype(np.float64)
    except ValueError:
        # Some field is not a number and the file will be rejected; find the
        # first such row so that the error names the right line.
        parsed = np.zeros(n)
        bad[next(i for i, s in enumerate(strings.tolist()) if not _is_float(s))] = True
    bad |= present & ~np.isfinite(parsed)
    values[present] = parsed[present]
    rows.cut(bad)
    return values[: len(rows)]


def _is_float(s: bytes) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def parse_metric_csv(path: str | Path, kind: MetricKind, catalog: Catalog) -> list[MetricSeries]:
    """Parse a metric CSV into grid-complete series.

    Rows are grouped by (cell, metric), sorted by window_start, and interior
    grid gaps are filled with MISSING so that cleaning can see and report
    them. An empty value field also denotes MISSING.

    The file is read once into a byte buffer and each check runs as an
    array operation over all rows; a check that fails drops its first bad
    row and all later ones from the rows the next checks see. The first bad
    line is then re-checked by ``_row_error``, which names the error as a
    row-by-row reader would. A duplicate (cell, metric, window_start) before
    that line raises DuplicatePoint instead. A fill of more than
    MAX_GRID_FILL MISSING windows raises GridTooLarge.
    """
    data, size = _read_padded(path)
    if not data.isascii():
        bytes(data[:size]).decode("utf-8")  # the UnicodeDecodeError a text read raises
    header: list[str] | None = None
    if size:
        header_end = data.find(b"\n", 0, size)
        line = data[: size if header_end < 0 else header_end].removesuffix(b"\r")
        header = line.decode("utf-8").split(",") if line else []
    if header != METRIC_HEADER:
        raise MalformedHeader(f"expected columns {METRIC_HEADER}, got {header}")
    if data[size - 1] != _NL:
        data[size] = _NL
        size += 1

    buf = np.frombuffer(data, dtype=np.uint8)
    body = data.find(b"\n") + 1
    rows = _locate_rows(data, size, body)
    keys, run_key, run_len = _key_runs(data, rows, kind, catalog)
    window_of_key = np.array([catalog[m].window_len for _, m in keys], dtype=np.int64)
    ws = _window_starts(buf, rows, np.repeat(window_of_key[run_key], run_len))
    values = _values(buf, rows)
    n = len(rows)
    ws = ws[:n]

    # Stable sort by (key rank, window_start); equal neighbours are duplicates.
    key_of_rank = sorted(range(len(keys)), key=keys.__getitem__)
    rank_of_key = np.empty(len(keys), dtype=np.int64)
    rank_of_key[key_of_rank] = np.arange(len(keys))
    rank = np.repeat(rank_of_key[run_key], run_len)[:n]
    order = np.lexsort((ws, rank))
    rank, ws, values = rank[order], ws[order], values[order]
    dup = np.flatnonzero((rank[1:] == rank[:-1]) & (ws[1:] == ws[:-1])) + 1
    if len(dup):
        at = dup[np.argmin(order[dup])]  # the duplicate that comes first in the file
        cell_id, metric_name = keys[key_of_rank[rank[at]]]
        raise DuplicatePoint((cell_id, metric_name, int(ws[at])))
    if rows.bad_line < len(rows.newlines):
        i = rows.bad_line
        start = int(rows.newlines[i - 1]) + 1 if i else body
        line = bytes(data[start : rows.newlines[i]]).removesuffix(b"\r")
        raise _row_error(i + 2, line, kind, catalog)

    # Grid-fill each key from its first to its last window.
    seg = np.flatnonzero(np.diff(rank, prepend=-1))
    seg_key = [key_of_rank[r] for r in rank[seg].tolist()]
    seg_len = np.diff(seg, append=n)
    seg_window = window_of_key[seg_key]
    seg_first = ws[seg]
    grid_len = (ws[seg + seg_len - 1] - seg_first) // seg_window + 1
    _check_grid_fill([keys[k] for k in seg_key], (grid_len - seg_len).tolist())
    grid_end = np.cumsum(grid_len)
    grid_start = grid_end - grid_len
    total = int(grid_end[-1]) if len(seg) else 0
    if total != n:
        row_seg = np.repeat(np.arange(len(seg)), seg_len)
        slot = grid_start[row_seg] + (ws - seg_first[row_seg]) // seg_window[row_seg]
        filled = np.full(total, np.nan)
        filled[slot] = values
        values = filled
        slot_seg = np.repeat(np.arange(len(seg)), grid_len)
        offset = np.arange(total) - grid_start[slot_seg]
        ws = seg_first[slot_seg] + offset * seg_window[slot_seg]

    out: list[MetricSeries] = []
    for k, lo, hi in zip(seg_key, grid_start.tolist(), grid_end.tolist()):
        cell_id, metric_name = keys[k]
        info = catalog[metric_name]
        out.append(
            MetricSeries(
                cell_id=cell_id,
                metric_name=metric_name,
                kind=info.kind,
                polarity=info.polarity,
                window_len=info.window_len,
                window_starts=ws[lo:hi],
                values=values[lo:hi],
            )
        )
    return out


def write_metric_csv(series: list[MetricSeries], path: str | Path) -> None:
    """Serialize series to the metric CSV schema; MISSING becomes an empty field.

    All grid points are written explicitly, so parse(write(x)) == x.
    """
    lines = [",".join(METRIC_HEADER)]
    for s in series:
        prefix = f"{s.cell_id},{s.metric_name},"
        lines.extend(
            f"{prefix}{ws},{'' if v != v else repr(v)}"
            for ws, v in zip(s.window_starts.tolist(), s.values.tolist())
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def aggregate_cdr(calls: CdrCalls, window_len: int) -> list[MetricSeries]:
    """Aggregate per-call records into cell-level KQI series.

    Per (cell, window) this yields call_attempts, drop_rate and mean_duration.
    A call belongs to the window containing its start_time. Within a cell the
    grid spans that cell's first to last active window; empty windows carry
    0 attempts and MISSING rates; more than MAX_GRID_FILL empty windows in
    all raise GridTooLarge. No per-user field survives. Durations are
    summed per window in record order, as a running float total would.
    """
    if window_len <= 0:
        raise ValueError("window_len must be positive")
    if not len(calls):
        return []
    cells, cell = np.unique(calls.cell_id, return_inverse=True)
    ws = calls.start_time // window_len * window_len
    first = np.full(len(cells), np.iinfo(np.int64).max)
    last = np.full(len(cells), np.iinfo(np.int64).min)
    np.minimum.at(first, cell, ws)
    np.maximum.at(last, cell, ws)
    grid_len = (last - first) // window_len + 1
    # Each cell has a window with data, so only a fill that may pass the limit
    # is counted exactly (a sort of all calls).
    if sum(grid_len.tolist()) - len(cells) > MAX_GRID_FILL:
        occupied = np.unique(np.stack((cell, ws), axis=1), axis=0)[:, 0]
        _check_grid_fill(cells.tolist(), (grid_len - np.bincount(occupied, minlength=len(cells))).tolist())
    grid_end = np.cumsum(grid_len)
    grid_start = grid_end - grid_len
    slot = grid_start[cell] + (ws - first[cell]) // window_len
    total = int(grid_end[-1])
    attempts = np.bincount(slot, minlength=total).astype(np.float64)
    dropped = np.bincount(slot, weights=calls.dropped, minlength=total)
    duration = np.bincount(slot, weights=calls.duration, minlength=total)
    with np.errstate(invalid="ignore"):
        derived = {
            "call_attempts": attempts,
            "drop_rate": dropped / attempts,
            "mean_duration": duration / attempts,
        }
    cell_of_slot = np.repeat(np.arange(len(cells)), grid_len)
    starts = first[cell_of_slot] + (np.arange(total) - grid_start[cell_of_slot]) * window_len

    out: list[MetricSeries] = []
    for cell_id, lo, hi in zip(cells.tolist(), grid_start.tolist(), grid_end.tolist()):
        for name, values in derived.items():
            out.append(
                MetricSeries(
                    cell_id=cell_id,
                    metric_name=name,
                    kind=MetricKind.KQI,
                    polarity=CDR_DERIVED_METRICS[name],
                    window_len=window_len,
                    window_starts=starts[lo:hi],
                    values=values[lo:hi],
                )
            )
    return out
