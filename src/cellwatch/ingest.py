"""Telemetry ingestion: CDR parsing, metric CSV parsing, cell-level aggregation.

Per-call records are held in memory as one ``CdrCalls`` of parallel arrays,
as ``synth`` generates them and ``parse_cdr`` reads them. ``aggregate_cdr``
reduces them to cell-level series and drops every per-user field, so
downstream code, the fog simulator included, only ever reads aggregates.
Subscriber endpoints are accepted as opaque hashes only; raw numbers are
never part of the schema.
"""

from __future__ import annotations

import codecs
import math
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    CellwatchError,
    DuplicatePoint,
    GridTooLarge,
    MalformedHeader,
    MalformedRow,
    UnknownMetric,
)
from .jsondoc import NotUtf8, decode, encode, read, write

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
        if not 0 < self.window_len < 2**63:  # grid arithmetic runs in int64
            raise ValueError(f"window_len_seconds must be > 0 and below 2**63, got {self.window_len}")
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
    return decode(Catalog, read(path))


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write a catalog; an entry without a value_range omits the key."""
    entries = encode(catalog).items()
    doc = {name: {k: v for k, v in entry.items() if v is not None} for name, entry in entries}
    write(doc, path)


def parse_cdr(path: str | Path) -> CdrCalls:
    """Parse a CDR CSV file, preserving row order.

    The CDR follows the metric CSV grammar and goes through the same block
    reader (``_read_rows``). start_time is read as window_start is, with no
    alignment; duration as value is, except that it must be present and
    not negative; dropped is the one byte 0 or 1. The id columns are taken
    as they are. The first bad row fails the parse with a MalformedRow
    naming its line, from the first check it fails in column order. A byte
    anywhere in the file that is not UTF-8 text raises NotUtf8 in place of
    any other error.
    """

    def columns(data: bytearray, rows: _Rows) -> tuple[np.ndarray, ...]:
        buf = np.frombuffer(data, dtype=np.uint8)
        start_time = _window_starts(buf, rows, 1, "start_time", 1)
        duration = _values(buf, rows, 2, "duration")
        rows.cut(
            buf,
            *rows.field(2),
            (np.isnan(duration), lambda k, text: f"non-numeric duration {text!r}"),
            (duration < 0, lambda k, _: f"negative duration {duration[k]}"),
        )
        lo, hi = rows.field(3)
        dropped = buf[lo] == _ONE
        bad = (hi - lo != 1) | ((buf[lo] != _ZERO) & ~dropped)
        rows.cut(buf, lo, hi, (bad, lambda k, text: f"dropped must be 0 or 1, got {text!r}"))
        n = len(rows)
        cell_id, source_hash, dest_hash = (_texts(data, *rows.field(i)) for i in (0, 4, 5))
        return cell_id, start_time[:n], duration[:n], dropped[:n], source_hash, dest_hash

    parts, error = _read_rows(path, CDR_HEADER, columns)
    if error is not None:
        raise error
    return CdrCalls(*map(_join, parts))


def _check_grid_fill(keys: list, fill: list[int]) -> None:
    """Raise GridTooLarge if the per-key MISSING fill adds up to more than MAX_GRID_FILL."""
    total = sum(fill)
    if total > MAX_GRID_FILL:
        worst = max(range(len(fill)), key=fill.__getitem__)
        raise GridTooLarge(keys[worst], fill[worst], total, MAX_GRID_FILL)


def write_cdr_csv(calls: CdrCalls, path: str | Path) -> None:
    """Serialize calls to the CDR schema; a duration is its repr() less any '.0', so parse(write(x)) == x."""
    lines = [",".join(CDR_HEADER)]
    for cell_id, start, dur, dropped, src, dst in zip(*(c.tolist() for c in vars(calls).values())):
        lines.append(f"{cell_id},{start},{repr(dur).removesuffix('.0')},{int(dropped)},{src},{dst}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# CSVs are read in blocks of this many bytes, each cut after its last line
# feed. Two blocks are parsed at a time, one by the caller and one by a
# worker thread, so a parse holds its parsed columns and two blocks of the file.
BLOCK_SIZE = 1 << 21

# CSV grammar limits. Windows of at most this many bytes are cut out of the
# block buffer per row, so the limits also bound the parser's memory.
_MAX_WS_DIGITS = 18  # |window_start| < 10**18: fits int64 with room for grid arithmetic (CDR start_time too)
_MAX_VALUE_BYTES = 40  # a value or a duration; repr() of a float64 needs at most 24
_MAX_KEY_WINDOW = 64  # longer (cell_id, metric) keys are compared byte for byte
_MAX_DECIMAL_BYTES = 19  # a plain decimal of at most 19 digits has a mantissa below 10**19 < 2**64
_LEAD = max(_MAX_WS_DIGITS, _MAX_VALUE_BYTES, _MAX_KEY_WINDOW, _MAX_DECIMAL_BYTES)  # windows end at a field end
_NL, _CR, _SPACE, _COMMA, _MINUS, _DOT, _ZERO, _ONE = (ord(c) for c in "\n\r ,-.01")

# A plain decimal m / 10**f is converted by one long-double division, which
# is exact only where long double is IEEE: x87 extended (63 stored mantissa
# bits) or binary128 (112). Elsewhere (64-bit long double on Windows and
# macOS arm64, double-double on POWER) every value goes through the cast.
_EXACT_DIVISION = np.finfo(np.longdouble).nmant in (63, 112)
_POW10_INT = np.uint64(10) ** np.arange(_MAX_DECIMAL_BYTES, dtype=np.uint64)
_POW10 = _POW10_INT.astype(np.longdouble)


def _blocks(path: str | Path) -> Iterator[tuple[bytearray, int]]:
    """The file as blocks of whole lines in file order: a buffer and the end of its content.

    The content starts at _LEAD, after zero bytes, so a fixed-width window may
    end at any content byte. Each read takes BLOCK_SIZE bytes and the block
    ends after its last line feed; the bytes after it, which no parse reads,
    start the next block. A block whose reads find no line feed reads on,
    doubling its buffer when it is full. The last block ends with a line
    feed even when the file does not. Each read is checked as UTF-8 text as
    it arrives, and a byte that is not raises NotUtf8 with its offset in the
    file. Each block is a new buffer that the generator does not touch once
    it is yielded, so another thread may parse it while the next is read.
    """
    offset = 0  # file offset of the block's content
    carry = b""
    checked = 0  # bytes of the carry that are known to be UTF-8 text
    with open(path, "rb") as fh:
        while True:
            data = bytearray(_LEAD + len(carry) + BLOCK_SIZE + 1)  # + the line feed that may end the file
            size = _LEAD + len(carry)
            data[_LEAD:size] = carry
            checked += _LEAD
            while True:
                got = fh.readinto(memoryview(data)[size : size + BLOCK_SIZE])
                searched, size = size, size + got
                checked = _check_utf8(path, data, checked, size, offset - _LEAD, final=not got)
                end = data.rfind(b"\n", searched, size) + 1 if got else size
                if end:
                    break
                if len(data) < size + BLOCK_SIZE + 1:
                    grown = bytearray(2 * len(data))
                    grown[:size] = memoryview(data)[:size]
                    data = grown
            if end == _LEAD:
                return
            carry = bytes(data[end:size])
            checked -= end
            if data[end - 1] != _NL:
                data[end] = _NL
                end += 1
            yield data, end
            offset += end - _LEAD


def _check_utf8(path: str | Path, data: bytearray, lo: int, hi: int, offset: int, final: bool) -> int:
    """Check data[lo:hi] as UTF-8 text; return where the check stopped.

    That is ``hi``, or the start of a character that the end of the read
    cuts when more reads follow (not ``final``). ``offset`` is the file
    offset of data[0]; NotUtf8 names the bad byte's offset in the file.
    """
    try:
        return lo + codecs.utf_8_decode(memoryview(data)[lo:hi], "strict", final)[1]
    except UnicodeDecodeError as exc:
        raise NotUtf8(path, exc, offset + lo) from None


def _tails(buf: np.ndarray, hi: np.ndarray, n_bytes: np.ndarray, limit: int, fill: int) -> np.ndarray:
    """The last ``width = min(max(n_bytes), limit)`` bytes (at least 1) of each field that ends at ``hi``.

    Row j of the (width, rows) uint8 matrix holds byte j of every field's window; bytes before a field read as ``fill``.
    Each window is gathered as one ``S{width}`` item of a view of ``buf`` that starts an item at every byte.
    """
    width = int(min(n_bytes.max(initial=1), limit))
    items = np.ndarray((len(buf) - width + 1,), f"S{width}", buffer=buf, strides=(1,))
    text = np.ascontiguousarray(items[hi - width].view(np.uint8).reshape(-1, width).T)
    inside = np.arange(width, dtype=np.uint8)[:, None] >= np.clip(width - n_bytes, 0, width).astype(np.uint8)
    # uint8 wraps around, so (byte - fill) * inside + fill is the byte inside a field and fill before it.
    text -= np.uint8(fill)
    text *= inside
    text += np.uint8(fill)
    return text


def _horner(digits: np.ndarray) -> np.ndarray:
    """Each column of a (width, rows) matrix of decimal digits as one number, ``m = 10 * m + digits[j]``, in uint64.

    Pairs of rows are folded first, twice, into rows of two digits (uint8)
    and then of four (uint16), so the uint64 steps run over a quarter of the
    rows; a first row left without a pair is kept as it is. A column with a
    byte that is not a digit wraps around and gives some value.
    """
    for dtype, scale in ((np.uint8, 10), (np.uint16, 100)):
        odd = len(digits) % 2
        folded = np.empty(((len(digits) + 1) // 2, digits.shape[1]), dtype)
        folded[:odd] = digits[:odd]
        np.multiply(digits[odd::2], dtype(scale), out=folded[odd:], dtype=dtype)
        folded[odd:] += digits[odd + 1 :: 2]
        digits = folded
    m = np.zeros(digits.shape[1], dtype=np.uint64)
    for row in digits:
        m *= 10_000
        m += row
    return m


@dataclass
class _Rows:
    """Byte offsets of a block's data rows that come before its first bad line.

    Lines are counted from 0 at the block's body, and a MalformedRow names
    line k as line k + 1; ``lines`` is the block's line count. The row
    arrays are parallel: the row's line, the start and end of its content
    (CR LF or LF excluded), and ``commas``, which holds one contiguous
    array per comma of a row (commas x rows). ``error`` names the first bad
    line, or is None while no line is known to be bad.
    """

    lines: int
    line: np.ndarray
    start: np.ndarray
    end: np.ndarray
    commas: np.ndarray
    error: CellwatchError | None = None

    def __len__(self) -> int:
        return len(self.line)

    def line_no(self, k: int) -> int:
        return int(self.line[k]) + 1

    def field(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The start and end offsets of field i of each row."""
        lo = self.start if i == 0 else self.commas[i - 1] + 1
        hi = self.end if i == len(self.commas) else self.commas[i]
        return lo, hi

    def truncate(self, k: int, error: CellwatchError) -> None:
        """Drop row k, whose line is now the first bad one, and all later rows."""
        self.error = error
        self.line, self.start, self.end = self.line[:k], self.start[:k], self.end[:k]
        self.commas = self.commas[:, :k]

    def cut(self, buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, *checks: tuple) -> None:
        """Truncate at the first row that a check flags.

        A check is a flag per row and a message function. Of the checks, given
        in column order, the first that flags the row names its MalformedRow,
        from the row and the text of its field, ``buf[lo:hi]``.
        """
        bad = np.logical_or.reduce([flags for flags, _ in checks])
        if bad.any():
            k = int(np.argmax(bad))
            message = next(message for flags, message in checks if flags[k])
            text = bytes(buf[lo[k] : hi[k]]).decode("utf-8")
            self.truncate(k, MalformedRow(self.line_no(k), message(k, text)))


def _locate_rows(data: bytearray, size: int, body: int, fields: int) -> _Rows:
    """Find lines and commas; cut at the first unsupported byte or a count other than ``fields``.

    One compare over the block finds the bytes below '-'. They include every
    comma, line feed, CR, quote and NUL, and the lines, commas and faults are
    found among them.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    below = np.flatnonzero(buf[body:size] < _MINUS) + body
    below_byte = buf[below]
    delims = below[(below_byte == _COMMA) | (below_byte == _NL)]
    unsupported = {ch: below[below_byte == ord(ch)] for ch in '"\0\r'}
    del below, below_byte
    nl_at = np.flatnonzero(buf[delims] == _NL)
    newlines = delims[nl_at]
    starts = np.empty_like(newlines)
    starts[:1] = body
    starts[1:] = newlines[:-1] + 1
    ends = newlines.copy()
    crs = unsupported["\r"]
    if len(crs):
        ends -= (ends > starts) & (buf[ends - 1] == _CR)
        unsupported["\r"] = crs[buf[crs + 1] != _NL]  # a CR that ends no line
    faults = [  # (line, message) of each fault's first line, in the order a line is checked
        (int(np.searchsorted(newlines, at[0])), f"unsupported character {ch!r}")
        for ch, at in unsupported.items()
        if len(at)
    ]
    blank = ends == starts
    n_commas = np.diff(nl_at, prepend=-1) - 1
    wrong_count = ~blank & (n_commas != fields - 1)
    if wrong_count.any():
        i = int(np.argmax(wrong_count))
        faults.append((i, f"expected {fields} fields, got {n_commas[i] + 1}"))
    bad_line, message = min(faults, key=lambda fault: fault[0], default=(len(newlines), None))
    line = np.flatnonzero(~blank[:bad_line])
    last = nl_at[line]
    return _Rows(
        lines=len(newlines),
        line=line,
        start=starts[line],
        end=ends[line],
        commas=delims[last + np.arange(1 - fields, 0)[:, None]],
        error=None if message is None else MalformedRow(bad_line + 1, message),
    )


def _key_runs(
    data: bytearray, rows: _Rows, kind: MetricKind, catalog: Catalog
) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """Group rows into runs of one (cell, metric) key and check each metric.

    A run starts where the key ``cell_id,metric_name`` differs from the row
    before in length or in a byte row of its ``_tails`` window; a longer key
    is compared byte for byte. Returns the (cell_id, metric_name) key,
    window length and row count of each run. A run whose metric is unknown
    or of the wrong kind cuts the rows.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    key_end = rows.commas[1]
    key_len = key_end - rows.start
    keys = _tails(buf, key_end, key_len, _MAX_KEY_WINDOW, 0)
    new_run = np.ones(len(rows), dtype=bool)
    new_run[1:] = (key_len[1:] != key_len[:-1]) | (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    for i in np.flatnonzero(~new_run & (key_len > len(keys))).tolist():
        here = data[rows.start[i] : key_end[i]]
        new_run[i] = here != data[rows.start[i - 1] : key_end[i - 1]]
    run_first = np.flatnonzero(new_run)

    run_key: list[tuple[str, str]] = []
    run_window: list[int] = []
    for i, a, b, e in zip(
        run_first.tolist(),
        rows.start[run_first].tolist(),
        rows.commas[0][run_first].tolist(),
        key_end[run_first].tolist(),
    ):
        metric_name = data[b + 1 : e].decode("utf-8")
        info = catalog.get(metric_name)
        if info is None:
            rows.truncate(i, UnknownMetric(metric_name))
            break
        if info.kind != kind:
            message = f"metric {metric_name!r} is {info.kind.value}, expected {kind.value}"
            rows.truncate(i, MalformedRow(rows.line_no(i), message))
            break
        run_key.append((data[a:b].decode("utf-8"), metric_name))
        run_window.append(info.window_len)
    run_len = np.diff(run_first[: len(run_key)], append=len(rows))
    return run_key, np.array(run_window, dtype=np.int64), run_len


def _window_starts(buf: np.ndarray, rows: _Rows, i: int, name: str, window_len: np.ndarray | int) -> np.ndarray:
    """Parse field i, ``name`` in messages: an optional '-' and 1..18 digits, aligned to window_len.

    The digits come from ``_tails``, where the sign and the bytes before the field read as '0'.
    """
    lo, hi = rows.field(i)
    neg = buf[lo] == _MINUS
    n_digits = hi - lo - neg
    long = n_digits > _MAX_WS_DIGITS
    digits = _tails(buf, hi, n_digits, _MAX_WS_DIGITS, _ZERO)
    digits -= np.uint8(_ZERO)
    integer = (n_digits >= 1) & (digits <= 9).all(axis=0)
    ws = _horner(digits).view(np.int64)
    if long.any():
        # The window holds only a long field's last digits. Every long field is
        # bad, so only the first can be the first bad row: check all of that one.
        k = int(np.argmax(long))
        integer[k] = bytes(buf[lo[k] + neg[k] : hi[k]]).isdigit()
    np.negative(ws, out=ws, where=neg)
    rows.cut(
        buf,
        lo,
        hi,
        (~integer, lambda k, text: f"non-integer {name} {text!r}"),
        (long, lambda k, text: f"{name} {text} has more than {_MAX_WS_DIGITS} digits"),
        (ws % window_len != 0, lambda k, _: f"{name} {ws[k]} not aligned to window_len {window_len[k]}"),
    )
    return ws[: len(rows)]


def _decimals(buf: np.ndarray, hi: np.ndarray, n_bytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert the fields of ``n_bytes`` bytes that end at ``hi`` as plain decimals.

    Returns float64 values and a mask of the fields converted: those of the
    shape ``[0-9]+(\\.[0-9]+)?``, at most _MAX_DECIMAL_BYTES long, whose
    quotient is not a midpoint. A field with f digits after the dot is
    ``m / 10**f``. m < 10**19 < 2**64 and 10**f are exact long doubles, and
    the division rounds once to at least 64 bits, so rounding the quotient
    to float64 gives ``float()``'s value unless the quotient lies exactly
    halfway between two doubles, where ties to even may pick the wrong one.
    The fields come from ``_tails``, where the bytes before a field read as '0'.
    """
    text = _tails(buf, hi, n_bytes, _MAX_DECIMAL_BYTES, _ZERO)
    width = len(text)
    dot = text == _DOT
    text -= np.uint8(_ZERO)
    ok = ((text <= 9) | dot).all(axis=0)
    dots = dot.sum(axis=0, dtype=np.uint8)
    fraction = (np.arange(width, dtype=np.uint8)[::-1, None] * dot).sum(axis=0, dtype=np.uint8)  # digits after the dot
    ok &= (n_bytes >= 1) & (n_bytes <= width)
    ok &= (dots == 0) | ((dots == 1) & (fraction >= 1) & (fraction < n_bytes - 1))  # not 5. or .5
    text *= ~dot  # the dot reads as a digit 0
    del dot
    m = _horner(text)
    del text
    # Take the dot's 0 out of m, where the digits before it sit one place too
    # high. A row left to the caller may count several dots: its fraction is 0.
    fraction *= ok
    low = m % _POW10_INT[fraction]
    np.copyto(m, (m - low) // 10 + low, where=fraction > 0)
    del low
    q = m.astype(np.longdouble)
    del m
    q /= _POW10[fraction]
    values = q.astype(np.float64)
    # q - values is exact; with x87's 64 bits it has at most 11 significant
    # bits, so float64 holds it (a wider q may round it, which can only flag
    # more rows). A midpoint is half the gap above values, or half the
    # smaller gap below a power of two; quarter gaps elsewhere are flagged too.
    off = np.abs((q - values).astype(np.float64))
    del q
    gap = np.spacing(values)
    ok &= (4 * off != gap) & (2 * off != gap)
    return values, ok


def _values(buf: np.ndarray, rows: _Rows, i: int, name: str) -> np.ndarray:
    """Parse field i, ``name`` in messages: empty is MISSING (NaN), else a finite float() literal.

    A plain decimal (``-?[0-9]+(\\.[0-9]+)?``, at most 19 bytes after the
    sign) is converted exactly by ``_decimals``, where long double division
    is exact. Every other field goes through one bytes-to-float64 cast,
    which accepts exactly the bytes ``float()`` accepts and rounds the same
    way, and names the bad rows. The cast reads the fields as ``_tails``
    gives them, right-aligned with leading spaces, which both skip.
    """
    n = len(rows)
    lo, hi = rows.field(i)
    value_len = hi - lo
    present = value_len > 0
    long = value_len > _MAX_VALUE_BYTES
    numeric = np.ones(n, dtype=bool)
    values = np.full(n, np.nan)
    cast = present
    if _EXACT_DIVISION and present.any():
        neg = buf[lo] == _MINUS
        plain, done = _decimals(buf, hi, value_len - neg)
        np.negative(plain, out=plain, where=neg)
        np.copyto(values, plain, where=done)
        cast = present & ~done
    at = np.flatnonzero(cast)
    raw = _tails(buf, hi[at], np.where(long[at], 0, value_len[at]), _MAX_VALUE_BYTES, _SPACE)
    raw[-1, long[at]] = _ZERO  # placeholder so the cast succeeds
    strings = np.ascontiguousarray(raw.T).view(f"S{len(raw)}").ravel()
    with np.errstate(over="ignore"):
        try:
            values[at] = strings.astype(np.float64)
        except ValueError:
            # Some field is not a number: find which, and cast the rest for the other checks.
            numeric[at] = [_is_float(s) for s in strings.tolist()]
            strings[~numeric[at]] = b"0"
            values[at] = strings.astype(np.float64)
    rows.cut(
        buf,
        lo,
        hi,
        (long, lambda k, _: f"{name} longer than {_MAX_VALUE_BYTES} bytes"),
        (~numeric, lambda k, text: f"non-numeric {name} {text!r}"),
        (present & ~np.isfinite(values), lambda k, text: f"non-finite {name} {text!r}"),
    )
    return values[: len(rows)]


def _texts(data: bytearray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The UTF-8 text of each row's field ``data[lo:hi]``, as a str array."""
    return np.array([data[a:b].decode("utf-8") for a, b in zip(lo.tolist(), hi.tolist())], dtype=str)


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """The blocks' arrays of one column as one array; empties ``parts`` to free them."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _is_float(s: bytes) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def _read_rows(
    path: str | Path, header: list[str], columns: Callable[[bytearray, _Rows], tuple]
) -> tuple[list[list], CellwatchError | None]:
    """Read a CSV with this header in blocks of whole lines: each column's parts, and the first error.

    ``_locate_rows`` finds a block's rows, one field per header column, and
    ``columns(data, rows)`` parses them into parts cut to the rows it
    leaves. Its checks run as array operations over the rows, in column
    order; one that fails drops its first bad row and all later ones from
    the rows the next checks see, and records that row's error
    (``_Rows.cut``). So the first bad line is named by the first check it
    fails, as a row-by-row reader would name it.

    The caller reads the blocks and checks them as UTF-8 text. It hands
    every other block to one worker thread and parses the block in between
    itself, then takes the two results in file order. A block's parse reads
    only its own bytes and numbers its lines from 1; taking a block shifts
    its MalformedRow by the lines of the blocks taken before it. Once a
    block's rows carry an error, the results of later blocks are dropped
    and no further block is parsed; the rest of the file is only checked as
    UTF-8 text. So the parts and the error are those of a reader that
    parses one block after another. A wrong header raises MalformedHeader,
    and a byte anywhere in the file that is not UTF-8 text raises NotUtf8
    in place of any other error. An exception raised by a parse reaches
    the caller unchanged.
    """
    got: list[str] | None = None
    blocks: list[tuple] = []
    error: CellwatchError | None = None
    lines_before = 1  # the header and the lines of the blocks taken

    def parse(data: bytearray, size: int, body: int) -> tuple[tuple, CellwatchError | None, int]:
        rows = _locate_rows(data, size, body, len(header))
        return columns(data, rows), rows.error, rows.lines

    def take(result: tuple[tuple, CellwatchError | None, int]) -> None:
        nonlocal error, lines_before
        parts, block_error, lines = result
        if error is None:
            blocks.append(parts)
            if isinstance(block_error, MalformedRow):
                block_error = MalformedRow(lines_before + block_error.line_no, block_error.message)
            error = block_error
            lines_before += lines

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None  # the worker's block, which comes before the caller's
        for data, size in _blocks(path):
            body = _LEAD
            if got is None:
                body = data.find(b"\n", _LEAD) + 1
                line = data[_LEAD : body - 1].removesuffix(b"\r")
                got = line.decode("utf-8").split(",") if line else []
            if got != header or error is not None:
                continue  # the rest of the file is only checked for UTF-8
            if pending is None:
                pending = worker.submit(parse, data, size, body)
            else:
                mine = parse(data, size, body)
                take(pending.result())
                take(mine)
                pending = None
        if pending is not None:
            take(pending.result())
    if got != header:
        raise MalformedHeader(f"expected columns {header}, got {got}")
    return [list(parts) for parts in zip(*blocks)], error


def parse_metric_csv(path: str | Path, kind: MetricKind, catalog: Catalog) -> list[MetricSeries]:
    """Parse a metric CSV into grid-complete series.

    Rows are grouped by (cell, metric), sorted by window_start, and interior
    grid gaps are filled with MISSING so that cleaning can see and report
    them. An empty value field also denotes MISSING.

    The file is read by ``_read_rows``, which names the first bad line by the
    first check it fails and parses two blocks at a time. Only the window
    start and value of each row are kept, with one (cell, metric) key per run
    of rows of one key; the keys are numbered here once the blocks are read,
    each by its rank in sorted order. Rows that are already in order, key rank
    never decreasing and window_start strictly increasing within each key (as
    ``write_metric_csv`` writes them), are taken as they are; other files are
    sorted. A duplicate (cell, metric, window_start) before the first bad line
    raises DuplicatePoint, naming the first in file order, in place of that
    line's error. A fill of more than MAX_GRID_FILL MISSING windows raises
    GridTooLarge. A byte anywhere in the file that is not UTF-8 text raises
    NotUtf8 in place of any other error.
    """

    def columns(data: bytearray, rows: _Rows) -> tuple:
        buf = np.frombuffer(data, dtype=np.uint8)
        run_key, run_window, run_len = _key_runs(data, rows, kind, catalog)
        ws = _window_starts(buf, rows, 2, "window_start", np.repeat(run_window, run_len))
        values = _values(buf, rows, 3, "value")
        n = len(rows)
        run_len = np.diff(np.minimum(np.cumsum(run_len), n), prepend=0)
        runs = np.count_nonzero(run_len)  # the runs that keep rows come first
        return run_key[:runs], run_len[:runs], ws[:n], values

    (key_parts, len_parts, ws_parts, value_parts), error = _read_rows(path, METRIC_HEADER, columns)

    run_key = [key for part in key_parts for key in part]
    keys = sorted(set(run_key))
    rank_of_key = {key: rank for rank, key in enumerate(keys)}
    run_rank = np.array([rank_of_key[key] for key in run_key], dtype=np.int64)
    window_of_key = np.array([catalog[m].window_len for _, m in keys], dtype=np.int64)
    run_len = _join(len_parts)
    run_start = np.cumsum(run_len) - run_len
    ws = _join(ws_parts)
    n = len(ws)
    key_runs = np.flatnonzero(np.diff(run_rank, prepend=-1))  # each key's first run
    rising = ws[1:] > ws[:-1]
    rising[run_start[key_runs[1:]] - 1] = True  # a new key may start anywhere
    if (np.diff(run_rank) >= 0).all() and rising.all():
        values = _join(value_parts)
        seg = run_start[key_runs]
        seg_key = run_rank[key_runs]
    else:
        # Stable sort by (key rank, window_start); equal neighbours are duplicates.
        # Columns are reordered one at a time to bound the peak memory.
        rank = np.repeat(run_rank, run_len)
        order = np.lexsort((ws, rank))
        rank = rank[order]
        ws = ws[order]
        values = _join(value_parts)[order]
        dup = np.flatnonzero((rank[1:] == rank[:-1]) & (ws[1:] == ws[:-1])) + 1
        if len(dup):
            at = dup[np.argmin(order[dup])]  # the duplicate that comes first in the file
            cell_id, metric_name = keys[rank[at]]
            raise DuplicatePoint((cell_id, metric_name, int(ws[at])))
        seg = np.flatnonzero(np.diff(rank, prepend=-1))
        seg_key = rank[seg]
    if error is not None:
        raise error

    # Grid-fill each key from its first to its last window.
    seg_len = np.diff(seg, append=n)
    seg_window = window_of_key[seg_key]
    seg_first = ws[seg]
    grid_len = (ws[seg + seg_len - 1] - seg_first) // seg_window + 1
    _check_grid_fill([keys[k] for k in seg_key.tolist()], (grid_len - seg_len).tolist())
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
    for k, lo, hi in zip(seg_key.tolist(), grid_start.tolist(), grid_end.tolist()):
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


def _intern(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)``, sorting one id per run of equal adjacent ids."""
    heads = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    unique, inverse = np.unique(ids[heads], return_inverse=True)
    return unique, np.repeat(inverse, np.diff(heads, append=len(ids)))


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
    cells, cell = _intern(calls.cell_id)
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
