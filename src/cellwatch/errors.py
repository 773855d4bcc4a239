"""Domain exceptions shared by all cellwatch modules.

Everything raised here derives from ``CellwatchError`` so the CLI can map
domain failures to exit code 1 and leave usage/IO problems (exit code 2)
to the standard exception types.
"""

from __future__ import annotations


class CellwatchError(Exception):
    """Base class for all domain errors."""


class MalformedHeader(CellwatchError):
    """CSV header does not match the expected schema."""


class MalformedRow(CellwatchError):
    """A CSV row failed to parse: the first bad row in file order.

    ``line_no`` is its 1-based line number (the header is line 1), and
    ``message`` names the first fault of the row, checked in column order.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class UnknownMetric(CellwatchError):
    """Metric name missing from the metric catalog."""

    def __init__(self, name: str):
        super().__init__(f"metric {name!r} not present in the catalog")
        self.name = name


class DuplicatePoint(CellwatchError):
    """Two rows share the same (cell, metric, window_start)."""

    def __init__(self, key: tuple):
        super().__init__(f"duplicate point for {key}")
        self.key = key


class GridTooLarge(CellwatchError):
    """Grid-filling the input would add more MISSING windows than the fill limit.

    ``key`` is the key whose grid adds the most: a (cell, metric) pair for a
    metric CSV, a cell id for CDR aggregation.
    """

    def __init__(self, key: object, key_fill: int, total_fill: int, limit: int):
        super().__init__(
            f"grid fill would add {total_fill} MISSING windows, more than {limit}; "
            f"{key!r} alone spans {key_fill} windows without data"
        )
        self.key = key


class TooManyItemsets(CellwatchError):
    """Counting the itemsets of the transactions would enumerate more subsets than the limit."""

    def __init__(self, subsets: int, limit: int, widest: int, max_len: int):
        super().__init__(
            f"counting itemsets of up to {max_len} symptoms would enumerate {subsets} subsets, "
            f"more than {limit}; the widest transaction has {widest} symptoms"
        )
        self.subsets = subsets


class TooFewPoints(CellwatchError):
    """A series does not carry enough usable points for the operation."""


class EmptyTraining(CellwatchError):
    """No training series were supplied."""


class UnknownKey(CellwatchError):
    """(cell, metric, hour) was never seen during training."""

    def __init__(self, key: tuple):
        super().__init__(f"no baseline for key {key}")
        self.key = key


class IncompatibleSketch(CellwatchError):
    """Histogram sketches cannot be merged (bounds or bin count differ)."""


class SchemaMismatch(CellwatchError):
    """A JSON document does not match its schema (version, shape, key or type)."""


class CorruptDb(CellwatchError):
    """Persisted fingerprint database violates an invariant."""


class InvalidTopology(CellwatchError):
    """Fog topology violates a structural invariant."""


class UnassignedCell(CellwatchError):
    """Scenario references a cell with no edge assignment."""

    def __init__(self, cell_id: str):
        super().__init__(f"cell {cell_id!r} is not assigned to any edge node")
        self.cell_id = cell_id


class InvalidSpec(CellwatchError):
    """Scenario specification is inconsistent."""
