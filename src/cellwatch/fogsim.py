"""Deterministic simulator for three deployment strategies of the pipeline.

The simulator runs the identical analytics pipeline under three placements
and accounts bytes per link and response latency per event. A strategy is
two placement facts, and every cost follows from them:

* Training runs at the cloud, or at the fog (FOG). At the cloud, edges
  relay raw records edge -> fog -> cloud for one fit. At the fog, edges
  aggregate CDR and ship training rows to their fog node only; fog nodes
  fit partition models (``summary_upload``) and count their edges'
  itemsets (``counts_upload``), and the cloud merges both.
* Inference runs at the cloud (CENTRALIZED), or at the edge. At the cloud,
  whole series ship up (``data_upload``), alerts ship down
  (``alert_downlink``) and an event waits for both. At the edge, only the
  training span ships (``train_upload``), the model is broadcast
  (``model_broadcast``), transactions ship to where training runs
  (``transaction_upload``) and events cost no link time.

Wherever inference runs, it scores each KQI series' windows after the
fitted model's last trained window (``trained_through``), as ``cellwatch
detect`` does.

Accounting is static flow accounting (transfer time = bytes/bandwidth +
link latency per hop), not packet simulation, and node compute time is
zero everywhere so the reports isolate network cost. Because baseline
sketches and itemset counts are additive, FOG produces field-identical
models and rule databases to CENTRALIZED on every scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from . import synth
from .baseline import BaselineModel, DetectorConfig, fit_baseline, merge_baselines, model_to_json, score_series
from .cleaning import CleanConfig, after_training, clean, train_span
from .errors import InvalidTopology, UnassignedCell
from .fingerprints import (
    FingerprintDb,
    MineConfig,
    Transaction,
    build_transactions,
    empty_db,
    itemset_count_tables,
    merge_count_tables,
    mine_from_counts,
    mine_rare_rules,
    update_db,
)
from .ingest import MetricSeries, aggregate_cdr
from .jsondoc import decode, encode, read
from .postfilter import AnomalyEvent, FilterConfig, apply_filters


class Tier(str, Enum):
    EDGE = "EDGE"
    FOG = "FOG"
    CLOUD = "CLOUD"


class Strategy(str, Enum):
    CENTRALIZED = "CENTRALIZED"
    EDGE_INFERENCE = "EDGE_INFERENCE"
    FOG = "FOG"


@dataclass(frozen=True)
class Link:
    bandwidth_bps: float  # bytes per second
    latency_s: float

    def transfer_time(self, n_bytes: int) -> float:
        return n_bytes / self.bandwidth_bps + self.latency_s


@dataclass
class FogTopology:
    """Three-tier tree: EDGE nodes under FOG nodes under one CLOUD root."""

    tiers: dict[str, Tier]
    parents: dict[str, str | None]
    links: dict[str, Link]  # keyed by child node
    cell_assignment: dict[str, str]  # cell -> edge node

    @property
    def cloud_id(self) -> str:
        return next(n for n, t in self.tiers.items() if t == Tier.CLOUD)

    def edges_of(self, fog: str) -> list[str]:
        return sorted(
            n for n, t in self.tiers.items() if t == Tier.EDGE and self.parents[n] == fog
        )


@dataclass(frozen=True)
class _Node:
    id: str
    tier: Tier
    parent: str | None = None


@dataclass(frozen=True)
class _TopologyDoc:
    """A topology document: the nodes, each node's uplink, and each cell's EDGE node."""

    nodes: list[_Node] = field(default_factory=list)
    links: dict[str, Link] = field(default_factory=dict)
    cells: dict[str, str] = field(default_factory=dict)


def build_topology(doc: dict) -> FogTopology:
    """Validate a topology document; raises SchemaMismatch or InvalidTopology naming the fault."""
    topo = decode(_TopologyDoc, doc)
    tiers: dict[str, Tier] = {}
    parents: dict[str, str | None] = {}
    for node in topo.nodes:
        if node.id in tiers:
            raise InvalidTopology(f"duplicate node id {node.id!r}")
        tiers[node.id] = node.tier
        parents[node.id] = node.parent

    clouds = [n for n, t in tiers.items() if t == Tier.CLOUD]
    if len(clouds) != 1:
        raise InvalidTopology(f"need exactly one CLOUD node, found {len(clouds)}")
    cloud = clouds[0]
    if parents[cloud] is not None:
        raise InvalidTopology("the CLOUD node cannot have a parent")

    for node_id, tier in tiers.items():
        parent = parents[node_id]
        if tier == Tier.CLOUD:
            continue
        if parent is None or parent not in tiers:
            raise InvalidTopology(f"node {node_id!r} has no valid parent")
        if tier == Tier.EDGE and tiers[parent] != Tier.FOG:
            raise InvalidTopology(f"EDGE node {node_id!r} must be parented to a FOG node")
        if tier == Tier.FOG and tiers[parent] != Tier.CLOUD:
            raise InvalidTopology(f"FOG node {node_id!r} must be parented to the CLOUD node")

    links: dict[str, Link] = {}
    for node_id, tier in tiers.items():
        if tier == Tier.CLOUD:
            continue
        link = topo.links.get(node_id)
        if link is None:
            raise InvalidTopology(f"node {node_id!r} has no uplink definition")
        if link.bandwidth_bps <= 0 or link.latency_s < 0:
            raise InvalidTopology(f"node {node_id!r} has a non-physical uplink")
        links[node_id] = link

    for cell, edge in topo.cells.items():
        if edge not in tiers or tiers[edge] != Tier.EDGE:
            raise InvalidTopology(f"cell {cell!r} assigned to non-EDGE node {edge!r}")
    return FogTopology(tiers=tiers, parents=parents, links=links, cell_assignment=topo.cells)


def load_topology(path: str | Path) -> FogTopology:
    return build_topology(read(path))


@dataclass(frozen=True)
class RecordSizes:
    """Serialized record sizes used for flow accounting (config constants)."""

    cdr_record_bytes: int = 64
    metric_row_bytes: int = 32
    transaction_bytes: int = 96
    alert_bytes: int = 128

    def __post_init__(self) -> None:
        for name, size in vars(self).items():
            if size < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class Scenario:
    """Everything simulate() needs: data spec, sizes, pipeline parameters; a scenario document."""

    spec: synth.ScenarioSpec
    sizes: RecordSizes = field(default_factory=RecordSizes)
    clean_cfg: CleanConfig = field(default_factory=CleanConfig, metadata={"json": "clean"})
    detector_cfg: DetectorConfig = field(default_factory=DetectorConfig, metadata={"json": "detector"})
    filter_cfg: FilterConfig = field(default_factory=FilterConfig, metadata={"json": "filters"})
    mine_cfg: MineConfig = field(default_factory=MineConfig, metadata={"json": "mine"})
    z_symptom: float = 3.0


@dataclass
class CostReport:
    """One strategy's bytes per link and event latencies; the fogsim report document."""

    strategy: Strategy
    total_bytes: int  # sum of up and down over links
    links: dict[str, dict[str, int]]  # link -> {up, down} over all phases
    phases: dict[str, dict[str, dict[str, int]]]  # phase -> link -> {up, down}
    event_latencies: list[float]
    mean_latency: float
    max_latency: float
    model_location: dict[str, str]

    def to_json_dict(self) -> dict:
        return encode(self)


class _Accounting:
    def __init__(self) -> None:
        self.phases: dict[str, dict[str, dict[str, int]]] = {}
        self.links: dict[str, dict[str, int]] = {}

    def add(self, phase: str, child: str, parent: str, up: int = 0, down: int = 0) -> None:
        if up == 0 and down == 0:
            return
        key = f"{child}->{parent}"
        for per_link in (self.phases.setdefault(phase, {}), self.links):
            link = per_link.setdefault(key, {"up": 0, "down": 0})
            link["up"] += up
            link["down"] += down


@dataclass
class _Prepared:
    """Pipeline state of one placement."""

    train_clean: list[MetricSeries]
    kqi_series: list[MetricSeries]  # generated and CDR-derived, the series inference scores
    kpi_series: list[MetricSeries]
    upload_bytes: dict[str, int]  # cell -> bytes shipped up for training
    window_bytes: dict[str, int]  # cell -> one window of all its series, an event's upload to the cloud
    detector_cfg: DetectorConfig


def _prepare(scenario: Scenario, train_at_fog: bool, infer_at_edge: bool) -> _Prepared:
    spec = scenario.spec
    calls, kqi_series, kpi_series, catalog, _ = synth.generate_series(spec)
    derived = aggregate_cdr(calls, spec.window_len)

    detector_cfg = scenario.detector_cfg.with_catalog_bounds(catalog)

    row, record = scenario.sizes.metric_row_bytes, scenario.sizes.cdr_record_bytes
    cells = spec.cell_ids()
    upload_bytes = dict.fromkeys(cells, 0)
    window_bytes = dict.fromkeys(cells, 0)
    for aggregated, group in ((True, derived), (False, kqi_series + kpi_series)):
        for series in group:
            train_raw = train_span(series, spec.train_fraction)
            if train_at_fog:  # the edge aggregates its CDR and ships the training rows
                upload_bytes[series.cell_id] += len(train_raw.values) * row
            elif not aggregated:  # raw rows: the training span, or all of them for cloud inference
                upload_bytes[series.cell_id] += len((train_raw if infer_at_edge else series).values) * row
            elif series.metric_name == "call_attempts":  # CDR records, counted from the aggregates
                calls_shipped = series.values
                if infer_at_edge:  # the calls that start before the test span
                    calls_shipped = calls_shipped[series.window_starts < spec.train_cutoff_window]
                upload_bytes[series.cell_id] += int(calls_shipped.sum()) * record
            window_bytes[series.cell_id] += row
    return _Prepared(
        train_clean=clean(derived + kqi_series + kpi_series, scenario.clean_cfg, spec.train_fraction)[0],
        kqi_series=derived + kqi_series,
        kpi_series=kpi_series,
        upload_bytes=upload_bytes,
        window_bytes=window_bytes,
        detector_cfg=detector_cfg,
    )


def _detect(model: BaselineModel, prepared: _Prepared, scenario: Scenario) -> list[AnomalyEvent]:
    events: list[AnomalyEvent] = []
    for test in after_training(prepared.kqi_series, model.trained_through):
        scored = score_series(model, test)
        events.extend(
            apply_filters(
                scored, scenario.filter_cfg, cell_id=test.cell_id, metric_name=test.metric_name
            )
        )
    return events


def _model_bytes(model: BaselineModel) -> int:
    if not model.sketches:
        return 0
    return len(model_to_json(model).encode("utf-8"))


def simulate(
    topology: FogTopology, strategy: Strategy, scenario: Scenario
) -> tuple[CostReport, BaselineModel, FingerprintDb]:
    """Run the pipeline under one placement strategy and account its cost.

    The returned model and rule database are the ones the strategy itself
    produced (merged ones for FOG); compare_models/compare_dbs check the
    distributed-equals-centralized property between strategies.
    """
    cells = scenario.spec.cell_ids()
    for cell in cells:
        if cell not in topology.cell_assignment:
            raise UnassignedCell(cell)

    train_at_fog = strategy == Strategy.FOG
    infer_at_edge = strategy in (Strategy.EDGE_INFERENCE, Strategy.FOG)
    prepared = _prepare(scenario, train_at_fog, infer_at_edge)
    cloud = topology.cloud_id
    acct = _Accounting()
    sizes = scenario.sizes

    def edge_of(cell: str) -> str:
        return topology.cell_assignment[cell]

    def fog_of(edge: str) -> str:
        parent = topology.parents[edge]
        assert parent is not None
        return parent

    cells_by_edge: dict[str, list[str]] = {}
    for cell in cells:
        cells_by_edge.setdefault(edge_of(cell), []).append(cell)
    active_edges = sorted(cells_by_edge)
    active_fogs = sorted({fog_of(e) for e in active_edges})

    def up(phase: str, edge: str, n_bytes: int) -> None:
        """Ship from an edge to where training runs: its fog node, or on to the cloud."""
        fog = fog_of(edge)
        acct.add(phase, edge, fog, up=n_bytes)
        if not train_at_fog:
            acct.add(phase, fog, cloud, up=n_bytes)

    # --- training + model placement -------------------------------------
    model = BaselineModel.empty(prepared.detector_cfg)
    partials_by_fog: dict[str, BaselineModel] = {}
    if train_at_fog:
        for fog in active_fogs:
            partition = [s for s in prepared.train_clean if fog_of(edge_of(s.cell_id)) == fog]
            if partition:
                partials_by_fog[fog] = fit_baseline(partition, prepared.detector_cfg)
        if partials_by_fog:
            model = merge_baselines(list(partials_by_fog.values()))
    elif prepared.train_clean:
        model = fit_baseline(prepared.train_clean, prepared.detector_cfg)

    phase = "train_upload" if infer_at_edge else "data_upload"
    for edge in active_edges:
        up(phase, edge, sum(prepared.upload_bytes[c] for c in cells_by_edge[edge]))
    for fog, partial in partials_by_fog.items():
        acct.add("summary_upload", fog, cloud, up=_model_bytes(partial))
    if infer_at_edge:
        model_bytes = _model_bytes(model)
        for fog in active_fogs:
            acct.add("model_broadcast", fog, cloud, down=model_bytes)
        for edge in active_edges:
            acct.add("model_broadcast", edge, fog_of(edge), down=model_bytes)

    # --- detection + transactions ----------------------------------------
    events = _detect(model, prepared, scenario)
    transactions = build_transactions(events, prepared.kpi_series, model, scenario.z_symptom)

    tx_by_edge: dict[str, list[Transaction]] = {e: [] for e in active_edges}
    for t in transactions:
        tx_by_edge[edge_of(t.key[0])].append(t)
    if infer_at_edge:
        for edge in active_edges:
            up("transaction_upload", edge, len(tx_by_edge[edge]) * sizes.transaction_bytes)

    if train_at_fog:  # each fog node counts its edges' itemsets; the cloud mines the merged counts
        tables = []
        for fog in active_fogs:
            fog_tx = [t for edge in topology.edges_of(fog) for t in tx_by_edge.get(edge, [])]
            table = itemset_count_tables(fog_tx, scenario.mine_cfg.max_antecedent)
            tables.append(table)
            if table.total:
                payload = json.dumps(table.to_json_dict(), sort_keys=True).encode("utf-8")
                acct.add("counts_upload", fog, cloud, up=len(payload))
        merged = merge_count_tables(tables)
        rules = mine_from_counts(merged, scenario.mine_cfg)
        total = merged.total
    else:
        rules = mine_rare_rules(transactions, scenario.mine_cfg)
        total = len(transactions)
    built_at = max((t.key[1] for t in transactions), default=0)
    db = update_db(empty_db(), rules, built_at=built_at, transaction_total=total)

    # --- alerts + per-event response latency ------------------------------
    latencies = [0.0] * len(events)  # inference at the edge: no link time on the event path
    if not infer_at_edge:  # the event's window travels up to the cloud, its alert back down
        for i, event in enumerate(events):
            edge = edge_of(event.cell_id)
            fog = fog_of(edge)
            acct.add("alert_downlink", edge, fog, down=sizes.alert_bytes)
            acct.add("alert_downlink", fog, cloud, down=sizes.alert_bytes)
            edge_link, fog_link = topology.links[edge], topology.links[fog]
            window_bytes = prepared.window_bytes[event.cell_id]
            up_s = edge_link.transfer_time(window_bytes) + fog_link.transfer_time(window_bytes)
            down_s = fog_link.transfer_time(sizes.alert_bytes) + edge_link.transfer_time(sizes.alert_bytes)
            latencies[i] = up_s + down_s

    report = CostReport(
        strategy=strategy,
        total_bytes=sum(link["up"] + link["down"] for link in acct.links.values()),
        links=acct.links,
        phases=acct.phases,
        event_latencies=latencies,
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        max_latency=max(latencies) if latencies else 0.0,
        model_location={
            "training": "fog" if train_at_fog else "cloud",
            **({"merge": "cloud"} if train_at_fog else {}),
            "inference": "edge" if infer_at_edge else "cloud",
            "mining": "cloud",
        },
    )
    return report, model, db


def compare_models(a: BaselineModel, b: BaselineModel) -> bool:
    """Field-exact model equality (config, metadata, sketch counts, last trained window)."""
    return a == b


def compare_dbs(a: FingerprintDb, b: FingerprintDb) -> bool:
    """Field-exact rule-set equality; built_at is bookkeeping, not content."""
    return a.transaction_total == b.transaction_total and a.rules == b.rules


# ---------------------------------------------------------------------------
# Stock topology and scenario


def default_topology_doc() -> dict:
    """1 cloud, 2 fog nodes, 4 edges, 8 cells; uniform link latency."""
    nodes = [{"id": "cloud", "tier": "CLOUD", "parent": None}]
    links: dict[str, dict] = {}
    cells: dict[str, str] = {}
    for f in range(2):
        fog = f"fog-{f}"
        nodes.append({"id": fog, "tier": "FOG", "parent": "cloud"})
        links[fog] = {"bandwidth_bps": 10_000_000.0, "latency_s": 0.01}
        for e in range(2):
            edge = f"edge-{f * 2 + e}"
            nodes.append({"id": edge, "tier": "EDGE", "parent": fog})
            links[edge] = {"bandwidth_bps": 1_000_000.0, "latency_s": 0.01}
    for c in range(8):
        cells[f"cell-{c:03d}"] = f"edge-{c // 2}"
    return {"nodes": nodes, "links": links, "cells": cells}


def default_topology() -> FogTopology:
    return build_topology(default_topology_doc())


def default_scenario(seed: int = 424242) -> Scenario:
    """Desk-scale scenario with real CDR traffic so aggregation matters."""
    spec = synth.default_spec(
        n_cells=8,
        days=6.0,
        window_len=900,
        seed=seed,
        anomaly_count=4,
        magnitude=10.0,
    )
    # A sizeable drop probability keeps drop_rate hour keys off all-zero training, whose zero MAD makes
    # one dropped call a false alarm (ROADMAP item 2); the default 0.02 raises about a hundred here,
    # as the strict xfail test_fogsim.py::test_low_drop_rate_stays_under_the_false_alarm_floor shows.
    spec.cdr = synth.CdrTraffic(calls_per_window=24.0, drop_prob=0.125)
    return Scenario(
        spec=spec,
        detector_cfg=DetectorConfig(bin_count=64, tau=4.5, min_samples=12),
        filter_cfg=FilterConfig(min_peak_score=5.0),
        mine_cfg=MineConfig(
            s_min_count=1, s_max_fraction=0.75, c_min=0.6, lift_min=1.1, max_antecedent=3
        ),
    )
