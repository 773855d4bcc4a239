"""Seeded synthetic scenarios: telemetry with planted anomalies and causes.

Generation is deterministic given (spec, seed): every (cell, metric) stream
draws from its own PCG64 generator sub-seeded with (seed, stream indices),
so per-cell generation order cannot change the output. Baselines are
truncated normals with hour-of-day means (the diurnal pattern hour-bucketed
baselines expect); planted anomalies shift values by
magnitude * 1.4826 * MAD_true in the metric's degrading direction, tying
planted signal strength directly to detector geometry. Each planted anomaly
carries a cause whose KPI symptom pattern is co-planted over the same
windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, SchemaMismatch
from .ingest import (
    CDR_DERIVED_METRICS,
    Catalog,
    MISSING,
    CdrCalls,
    MetricInfo,
    MetricKind,
    MetricSeries,
    Polarity,
)
from .fingerprints import SymptomItem, SymptomState
from .jsondoc import decode, read, write
from .postfilter import AnomalyEvent

TRUTH_SCHEMA_VERSION = 1

# MAD of a unit normal; 1.4826 * MAD_NORMAL == 1 sigma (up to rounding)
MAD_NORMAL = 0.6744897501960817

# generation budgets, checked before anything is allocated: grid points
# (n_cells * n_windows) per metric, and expected CDR calls over the grid
MAX_SPEC_POINTS = 2**24
MAX_SPEC_CALLS = 2**24


@dataclass(frozen=True)
class MetricSpec:
    """Baseline generator for one metric: per-hour truncated normal."""

    kind: MetricKind
    polarity: Polarity
    base_level: float
    diurnal_amplitude: float
    sigma: float
    value_range: tuple[float, float]


@dataclass(frozen=True)
class CauseSpec:
    label: str
    pattern: dict[str, SymptomState]  # KPI name -> planted direction
    kqi: str
    symptom_magnitude: float = 8.0


@dataclass(frozen=True)
class PlantedAnomaly:
    cell_id: str
    metric: str
    start_window: int
    n_windows: int
    magnitude: float


@dataclass(frozen=True)
class AutoPlan:
    """Materialized into concrete PlantedAnomaly entries at generation time."""

    count: int
    magnitude: float = 8.0
    min_windows: int = 4
    max_windows: int = 10


@dataclass(frozen=True)
class CdrTraffic:
    calls_per_window: float = 0.0
    drop_prob: float = 0.02
    duration_mean: float = 120.0


@dataclass
class ScenarioSpec:
    n_cells: int
    days: float
    window_len: int
    seed: int
    metrics: dict[str, MetricSpec]
    causes: list[CauseSpec] = field(default_factory=list)
    anomalies: list[PlantedAnomaly] | AutoPlan = field(default_factory=list)
    cdr: CdrTraffic = field(default_factory=CdrTraffic)
    train_fraction: float = 0.7
    missing_rate: float = 0.002

    @property
    def n_windows(self) -> int:
        return int(self.days * 86400) // self.window_len

    @property
    def train_cutoff_window(self) -> int:
        """Start of the first window after the training span of a full-grid series."""
        return math.ceil(self.n_windows * self.train_fraction) * self.window_len

    def cell_ids(self) -> list[str]:
        return [f"cell-{i:03d}" for i in range(self.n_cells)]

    def catalog(self) -> Catalog:
        cat: Catalog = {
            name: MetricInfo(m.kind, m.polarity, self.window_len, m.value_range)
            for name, m in self.metrics.items()
        }
        if self.cdr.calls_per_window > 0:
            # ranges track baseline variation; sketch bins must resolve the
            # per-window noise scale or MAD estimates collapse to zero
            lam = max(1.0, self.cdr.calls_per_window)
            ranges = {
                "call_attempts": (0.0, float(math.ceil(lam + 8.0 * math.sqrt(lam)))),
                "drop_rate": (0.0, 1.0),
                "mean_duration": (0.0, self.cdr.duration_mean * (1.0 + 10.0 / math.sqrt(lam))),
            }
            for name, polarity in CDR_DERIVED_METRICS.items():
                cat[name] = MetricInfo(MetricKind.KQI, polarity, self.window_len, ranges[name])
        return cat

    def validate(self) -> None:
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if self.n_cells < 1:
            raise InvalidSpec("n_cells must be >= 1")
        if not 0 < self.days * 86400 < math.inf or self.window_len <= 0:
            raise InvalidSpec("days must be finite and > 0, also in seconds, and window_len > 0")
        points = self.n_cells * self.n_windows
        if points > MAX_SPEC_POINTS:
            raise InvalidSpec(
                f"n_cells * n_windows (days * 86400 / window_len) is {points} points per metric,"
                f" more than {MAX_SPEC_POINTS}"
            )
        if not 0 < self.train_fraction < 1:
            raise InvalidSpec("train_fraction must be in (0, 1)")
        if not 0 <= self.missing_rate < 1:
            raise InvalidSpec("missing_rate must be in [0, 1)")
        # an empty metric dict is allowed: it describes a vacuous scenario
        if self.metrics and self.n_windows < 2:
            raise InvalidSpec("grid needs at least two windows")
        # written so that NaN fails each check
        if not 0 <= self.cdr.calls_per_window < math.inf:
            raise InvalidSpec("cdr.calls_per_window must be finite and >= 0")
        if self.cdr.calls_per_window * points > MAX_SPEC_CALLS:
            raise InvalidSpec(
                f"cdr.calls_per_window {self.cdr.calls_per_window} over {points} cell windows"
                f" expects more than {MAX_SPEC_CALLS} calls"
            )
        if not 0 <= self.cdr.drop_prob <= 1:
            raise InvalidSpec("cdr.drop_prob must be in [0, 1]")
        if not 0 < self.cdr.duration_mean < math.inf:
            raise InvalidSpec("cdr.duration_mean must be finite and > 0")
        for name, m in self.metrics.items():
            if self.cdr.calls_per_window > 0 and name in CDR_DERIVED_METRICS:
                raise InvalidSpec(f"metric {name!r}: the CDR traffic derives it, so the spec cannot declare it too")
            if m.sigma <= 0:
                raise InvalidSpec(f"metric {name!r}: sigma must be > 0")
            if not m.value_range[0] < m.value_range[1]:
                raise InvalidSpec(f"metric {name!r}: bad value_range")
        kqis = {n for n, m in self.metrics.items() if m.kind == MetricKind.KQI}
        kpis = {n for n, m in self.metrics.items() if m.kind == MetricKind.KPI}
        for cause in self.causes:
            if cause.kqi not in kqis:
                raise InvalidSpec(f"cause {cause.label!r} targets unknown KQI {cause.kqi!r}")
            unknown = set(cause.pattern) - kpis
            if unknown:
                raise InvalidSpec(f"cause {cause.label!r} references unknown KPIs {sorted(unknown)}")
            if cause.symptom_magnitude <= 0:
                raise InvalidSpec(f"cause {cause.label!r}: symptom_magnitude must be > 0")
        if isinstance(self.anomalies, AutoPlan):
            plan = self.anomalies
            if plan.count < 0 or plan.magnitude <= 0:
                raise InvalidSpec("auto plan needs count >= 0 and magnitude > 0")
            if not 1 <= plan.min_windows <= plan.max_windows:
                raise InvalidSpec("auto plan window range invalid")
            if plan.count and not kqis:
                raise InvalidSpec("cannot plant anomalies without KQI metrics")
        else:
            cells = set(self.cell_ids())
            end = self.n_windows * self.window_len
            for i, a in enumerate(self.anomalies):
                if a.magnitude <= 0:
                    raise InvalidSpec("planted magnitudes must be > 0")
                if a.n_windows < 1:
                    raise InvalidSpec(f"anomalies[{i}].n_windows must be >= 1, got {a.n_windows}")
                if a.start_window % self.window_len:
                    raise InvalidSpec(
                        f"anomalies[{i}].start_window {a.start_window}"
                        f" is not a multiple of window_len {self.window_len}"
                    )
                if a.metric not in kqis:
                    raise InvalidSpec(f"anomaly targets non-KQI metric {a.metric!r}")
                if a.cell_id not in cells:
                    raise InvalidSpec(f"anomaly targets unknown cell {a.cell_id!r}")
                if a.start_window < self.train_cutoff_window:
                    raise InvalidSpec("planted anomalies must lie inside the test span")
                if a.start_window + a.n_windows * self.window_len > end:
                    raise InvalidSpec("planted anomaly extends past the grid")


@dataclass(frozen=True)
class PlantedEvent:
    cell_id: str
    metric: str
    start_window: int
    end_window: int
    cause_label: str | None


@dataclass(frozen=True)
class PlantedRule:
    """A cause's symptom pattern: sorted antecedent tokens -> KQI, with its label."""

    antecedent: list[str]
    consequent: str
    cause_label: str


@dataclass(frozen=True)
class Labels:
    """A --labels document: cause labels that ``mine`` gives the matching rules."""

    labels: list[PlantedRule] = field(default_factory=list)


@dataclass
class GroundTruth:
    planted_events: list[PlantedEvent]
    planted_rules: list[PlantedRule]
    train_cutoff_window: int
    window_len: int
    schema_version: int = TRUTH_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != TRUTH_SCHEMA_VERSION:
            raise SchemaMismatch(f"unsupported truth schema {self.schema_version!r}")


def default_spec(
    n_cells: int = 50,
    days: float = 14.0,
    window_len: int = 300,
    seed: int = 20240601,
    anomaly_count: int = 12,
    magnitude: float = 8.0,
    calls_per_window: float = 0.0,
) -> ScenarioSpec:
    """The stock desk-scale scenario: 2 KQIs, 4 KPIs, 4 causes."""
    # value ranges cover baseline variation (roughly mean +- amp + 10 sigma):
    # they clip baseline draws and pin sketch bounds, and only the anomaly-free
    # training data is ever binned, so tight ranges buy MAD resolution for free
    metrics = {
        "page_load_ms": MetricSpec(
            MetricKind.KQI, Polarity.HIGHER_IS_WORSE, 1400.0, 250.0, 120.0, (0.0, 2800.0)
        ),
        "video_throughput_mbps": MetricSpec(
            MetricKind.KQI, Polarity.LOWER_IS_WORSE, 25.0, 3.0, 1.5, (5.0, 45.0)
        ),
        "rtt_ms": MetricSpec(
            MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 45.0, 10.0, 6.0, (0.0, 120.0)
        ),
        "packet_loss_pct": MetricSpec(
            MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 0.6, 0.2, 0.15, (0.0, 2.5)
        ),
        "prb_util_pct": MetricSpec(
            MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 55.0, 18.0, 7.0, (0.0, 100.0)
        ),
        "handover_fail_pct": MetricSpec(
            MetricKind.KPI, Polarity.HIGHER_IS_WORSE, 1.2, 0.3, 0.35, (0.0, 5.0)
        ),
    }
    causes = [
        CauseSpec(
            "congestion",
            {"prb_util_pct": SymptomState.HIGH, "rtt_ms": SymptomState.HIGH},
            "page_load_ms",
        ),
        CauseSpec(
            "radio_interference",
            {"packet_loss_pct": SymptomState.HIGH, "handover_fail_pct": SymptomState.HIGH},
            "page_load_ms",
        ),
        CauseSpec(
            "backhaul_degradation",
            {"rtt_ms": SymptomState.HIGH, "packet_loss_pct": SymptomState.HIGH},
            "video_throughput_mbps",
        ),
        CauseSpec(
            "capacity_overload",
            {"prb_util_pct": SymptomState.HIGH, "handover_fail_pct": SymptomState.HIGH},
            "video_throughput_mbps",
        ),
    ]
    return ScenarioSpec(
        n_cells=n_cells,
        days=days,
        window_len=window_len,
        seed=seed,
        metrics=metrics,
        causes=causes,
        anomalies=AutoPlan(count=anomaly_count, magnitude=magnitude),
        cdr=CdrTraffic(calls_per_window=calls_per_window),
    )


def _materialize_plan(spec: ScenarioSpec) -> list[tuple[PlantedAnomaly, CauseSpec | None]]:
    """Fix the anomaly plan and assign causes, all from the plan sub-seed.

    Causes cycle over the matching-KQI cause list so desk-scale runs keep
    balanced per-cause support counts.
    """
    kqis = sorted(n for n, m in spec.metrics.items() if m.kind == MetricKind.KQI)
    causes_by_kqi: dict[str, list[CauseSpec]] = {}
    for cause in spec.causes:
        causes_by_kqi.setdefault(cause.kqi, []).append(cause)
    cause_cursor: dict[str, int] = {q: 0 for q in causes_by_kqi}

    def pick_cause(kqi: str) -> CauseSpec | None:
        options = causes_by_kqi.get(kqi)
        if not options:
            return None
        cause = options[cause_cursor[kqi] % len(options)]
        cause_cursor[kqi] += 1
        return cause

    if isinstance(spec.anomalies, AutoPlan):
        plan = spec.anomalies
        rng = np.random.default_rng([spec.seed, 0xA110])
        cells = spec.cell_ids()
        cut_idx = spec.train_cutoff_window // spec.window_len
        placed: list[tuple[PlantedAnomaly, CauseSpec | None]] = []
        used: set[tuple[str, str]] = set()
        attempts = 0
        while len(placed) < plan.count:
            attempts += 1
            # a (cell, KQI) pair holds one anomaly at most: once all hold one, no draw can place another
            if attempts > plan.count * 50 or len(placed) == len(cells) * len(kqis):
                raise InvalidSpec("could not place the requested anomaly count")
            cell = cells[int(rng.integers(0, len(cells)))]
            # cycle KQIs so per-cause support counts stay balanced at desk scale
            kqi = kqis[len(placed) % len(kqis)]
            if (cell, kqi) in used:
                continue
            n_windows = int(rng.integers(plan.min_windows, plan.max_windows + 1))
            hi = spec.n_windows - n_windows
            if hi < cut_idx:
                raise InvalidSpec("test span too short for the planned anomaly durations")
            start_idx = int(rng.integers(cut_idx, hi + 1))
            used.add((cell, kqi))
            anomaly = PlantedAnomaly(
                cell_id=cell,
                metric=kqi,
                start_window=start_idx * spec.window_len,
                n_windows=n_windows,
                magnitude=plan.magnitude,
            )
            placed.append((anomaly, pick_cause(kqi)))
        return placed
    return [(a, pick_cause(a.metric)) for a in spec.anomalies]


def generate_series(
    spec: ScenarioSpec, seed: int | None = None
) -> tuple[CdrCalls, list[MetricSeries], list[MetricSeries], Catalog, GroundTruth]:
    """In-memory generation: (CDR calls, KQI series, KPI series, catalog, truth)."""
    if seed is not None:
        spec = ScenarioSpec(**{**spec.__dict__, "seed": seed})
    spec.validate()
    window_len = spec.window_len
    n = spec.n_windows
    starts = np.arange(n, dtype=np.int64) * window_len
    starts.flags.writeable = False  # shared by every generated series
    hours = (starts // 3600) % 24
    metric_names = sorted(spec.metrics)
    cells = spec.cell_ids()

    plan = _materialize_plan(spec)
    shifts: dict[tuple[str, str], list[tuple[int, int, float]]] = {}
    planted_events: list[PlantedEvent] = []
    for anomaly, cause in plan:
        m = spec.metrics[anomaly.metric]
        sign = 1.0 if m.polarity == Polarity.HIGHER_IS_WORSE else -1.0
        shift = sign * anomaly.magnitude * 1.4826 * MAD_NORMAL * m.sigma
        lo_idx = anomaly.start_window // window_len
        hi_idx = lo_idx + anomaly.n_windows
        shifts.setdefault((anomaly.cell_id, anomaly.metric), []).append((lo_idx, hi_idx, shift))
        if cause is not None:
            for kpi, state in cause.pattern.items():
                km = spec.metrics[kpi]
                ksign = 1.0 if state == SymptomState.HIGH else -1.0
                kshift = ksign * cause.symptom_magnitude * 1.4826 * MAD_NORMAL * km.sigma
                shifts.setdefault((anomaly.cell_id, kpi), []).append((lo_idx, hi_idx, kshift))
        planted_events.append(
            PlantedEvent(
                cell_id=anomaly.cell_id,
                metric=anomaly.metric,
                start_window=anomaly.start_window,
                end_window=anomaly.start_window + (anomaly.n_windows - 1) * window_len,
                cause_label=cause.label if cause else None,
            )
        )

    kqi_series: list[MetricSeries] = []
    kpi_series: list[MetricSeries] = []
    for ci, cell in enumerate(cells):
        for mi, name in enumerate(metric_names):
            m = spec.metrics[name]
            rng = np.random.default_rng([spec.seed, 1, ci, mi])
            means = m.base_level + m.diurnal_amplitude * np.sin(2.0 * np.pi * (hours - 6) / 24.0)
            values = rng.normal(means, m.sigma)
            np.clip(values, m.value_range[0], m.value_range[1], out=values)
            for lo_idx, hi_idx, shift in shifts.get((cell, name), []):
                values[lo_idx:hi_idx] += shift
            values[rng.random(n) < spec.missing_rate] = MISSING
            series = MetricSeries(
                cell_id=cell,
                metric_name=name,
                kind=m.kind,
                polarity=m.polarity,
                window_len=window_len,
                window_starts=starts,
                values=values,
            )
            (kqi_series if m.kind == MetricKind.KQI else kpi_series).append(series)

    calls = _generate_calls(spec, cells, starts) if spec.cdr.calls_per_window > 0 else CdrCalls()

    truth = GroundTruth(
        planted_events=planted_events,
        planted_rules=[
            PlantedRule(
                sorted(SymptomItem(k, s).token for k, s in cause.pattern.items()),
                cause.kqi,
                cause.label,
            )
            for cause in spec.causes
        ],
        train_cutoff_window=spec.train_cutoff_window,
        window_len=window_len,
    )
    return calls, kqi_series, kpi_series, spec.catalog(), truth


# each byte value's two hex digits as UCS4 code points, so 4 of them view as one "U8" string
_HEX_PAIRS = np.array([f"{b:02x}" for b in range(256)]).view(np.uint64)


def _generate_calls(spec: ScenarioSpec, cells: list[str], starts: np.ndarray) -> CdrCalls:
    """Poisson call traffic per (cell, window), drawn from each cell's own stream.

    The draws are the data contract. Cell ``ci`` draws from a PCG64 stream
    seeded with ``(seed, 2, ci)``: first its call count for every window,
    ``poisson(calls_per_window, n_windows)``; then, for its N calls in all,
    ``integers(0, window_len, N)`` start offsets, N standard exponentials,
    N uniforms and 2N uint32 endpoint words (source then destination, call
    by call). The offsets fill the windows in order, as the calls do.

    Everything after the draws is one array pass over all calls: sorting the
    offsets within each window, adding the window starts, scaling durations
    by ``duration_mean`` (the one multiply that ``exponential(scale)``
    makes) and rounding them to 0.1 s, comparing the uniforms with
    ``drop_prob``, and writing each endpoint word as 8 hex digits, most
    significant first.
    """
    cdr = spec.cdr
    rngs = [np.random.default_rng([spec.seed, 2, ci]) for ci in range(len(cells))]
    counts = np.array([rng.poisson(cdr.calls_per_window, len(starts)) for rng in rngs])
    per_cell = counts.sum(axis=1)
    n = int(per_cell.sum())
    start_time, duration, uniform = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    endpoints = np.empty(2 * n, dtype=np.uint32)
    cell_end = np.cumsum(per_cell).tolist()
    for rng, lo, hi in zip(rngs, [0, *cell_end], cell_end):
        start_time[lo:hi] = rng.integers(0, spec.window_len, hi - lo)
        rng.standard_exponential(out=duration[lo:hi])
        rng.random(out=uniform[lo:hi])
        endpoints[2 * lo : 2 * hi] = rng.integers(0, 2**32, 2 * (hi - lo), dtype=np.uint32)
    # calls are in (cell, window) order; a cell's start times fall in disjoint
    # windows in increasing order, so one sort per cell sorts each window
    start_time += np.repeat(np.tile(starts, len(cells)), counts.ravel())
    for lo, hi in zip([0, *cell_end], cell_end):
        start_time[lo:hi].sort()
    # each word's 4 bytes, most significant first, as 2 hex digits apiece
    hashes = _HEX_PAIRS.take(endpoints.astype(">u4").view(np.uint8).reshape(-1, 4)).view("U8")[:, 0]
    cell_id = np.repeat(np.array(cells), per_cell)
    duration = np.round(duration * cdr.duration_mean, 1)
    return CdrCalls(cell_id, start_time, duration, uniform < cdr.drop_prob, hashes[0::2], hashes[1::2])


@dataclass
class GeneratedFiles:
    cdr: Path
    kqi: Path
    kpi: Path
    catalog: Path
    truth: Path
    labels: Path


def generate(spec: ScenarioSpec, out_dir: str | Path, seed: int | None = None) -> tuple[GeneratedFiles, GroundTruth]:
    """Write scenario CSVs plus catalog, ground truth and label files."""
    from .ingest import save_catalog, write_cdr_csv, write_metric_csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    calls, kqi_series, kpi_series, catalog, truth = generate_series(spec, seed)
    paths = GeneratedFiles(
        cdr=out / "cdr.csv",
        kqi=out / "kqi.csv",
        kpi=out / "kpi.csv",
        catalog=out / "catalog.json",
        truth=out / "truth.json",
        labels=out / "labels.json",
    )
    write_cdr_csv(calls, paths.cdr)
    write_metric_csv(kqi_series, paths.kqi)
    write_metric_csv(kpi_series, paths.kpi)
    save_catalog(catalog, paths.catalog)
    write(truth, paths.truth)
    write(Labels(truth.planted_rules), paths.labels)
    return paths, truth


# ---------------------------------------------------------------------------
# Evaluation against ground truth


@dataclass
class DiagnosisOutcome:
    matched: bool
    top_label: str | None


@dataclass
class EvalReport:
    """Detection and diagnosis scores against the ground truth; the eval report document."""

    precision: float
    recall: float
    rca_top1_accuracy: float
    counts: dict[str, int]


def _overlaps(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    return a_start <= b_end and b_start <= a_end


def evaluate(
    events: list[AnomalyEvent],
    diagnoses: list[DiagnosisOutcome | None] | None,
    truth: GroundTruth,
) -> EvalReport:
    """Score detections and diagnoses against the planted ground truth.

    A detected event matches a planted one when cell and KQI agree and the
    window spans overlap. Precision is 1.0 by convention when nothing was
    detected; RCA accuracy likewise when no matched event carries a matched
    diagnosis.
    """
    if diagnoses is None:
        diagnoses = [None] * len(events)
    if len(diagnoses) != len(events):
        raise ValueError("diagnoses must align with events")

    matched_detected = 0
    planted_hit: set[int] = set()
    rca_total = 0
    rca_correct = 0
    for event, outcome in zip(events, diagnoses):
        true_cause: str | None = None
        hit = False
        for pi, planted in enumerate(truth.planted_events):
            if planted.cell_id != event.cell_id or planted.metric != event.metric_name:
                continue
            if _overlaps(
                event.start_window, event.end_window, planted.start_window, planted.end_window
            ):
                hit = True
                planted_hit.add(pi)
                if true_cause is None:
                    true_cause = planted.cause_label
        if not hit:
            continue
        matched_detected += 1
        if outcome is not None and outcome.matched:
            rca_total += 1
            if outcome.top_label is not None and outcome.top_label == true_cause:
                rca_correct += 1

    n_detected = len(events)
    n_planted = len(truth.planted_events)
    precision = matched_detected / n_detected if n_detected else 1.0
    recall = len(planted_hit) / n_planted if n_planted else 1.0
    accuracy = rca_correct / rca_total if rca_total else 1.0
    return EvalReport(
        precision=precision,
        recall=recall,
        rca_top1_accuracy=accuracy,
        counts={
            "detected": n_detected,
            "detected_matched": matched_detected,
            "planted": n_planted,
            "planted_matched": len(planted_hit),
            "rca_considered": rca_total,
            "rca_correct": rca_correct,
        },
    )


# ---------------------------------------------------------------------------
# Spec, truth and labels documents: the dataclasses above are the schema


def load_spec(path: str | Path) -> ScenarioSpec:
    return decode(ScenarioSpec, read(path))


def save_spec(spec: ScenarioSpec, path: str | Path) -> None:
    write(spec, path)
