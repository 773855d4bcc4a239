"""Deterministic simulator for three deployment strategies of the pipeline.

The simulator runs the identical analytics pipeline under three placements
and accounts bytes per link and response latency per event:

* CENTRALIZED   -- every raw record ships edge -> fog -> cloud; training,
                   inference and mining all happen at the cloud.
* EDGE_INFERENCE -- raw training data ships to the cloud once, the trained
                   model ships back to the edges, inference is local;
                   symptom transactions still ship up for mining.
* FOG           -- edges aggregate CDR locally and ship only training
                   series to their fog node; fog nodes fit partition models
                   and partial itemset count tables; the cloud merges both
                   and broadcasts the merged model back for edge inference.

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
from .cleaning import CleanConfig, chrono_split, clean
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
from .ingest import MetricKind, MetricSeries, aggregate_cdr
from .jsondoc import decode
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

    def nodes_of(self, tier: Tier) -> list[str]:
        return sorted(n for n, t in self.tiers.items() if t == tier)

    def edges_of(self, fog: str) -> list[str]:
        return sorted(
            n for n, t in self.tiers.items() if t == Tier.EDGE and self.parents[n] == fog
        )

    def cells_of(self, edge: str) -> list[str]:
        return sorted(c for c, e in self.cell_assignment.items() if e == edge)


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
    with open(path, encoding="utf-8") as fh:
        return build_topology(json.load(fh))


@dataclass(frozen=True)
class RecordSizes:
    """Serialized record sizes used for flow accounting (config constants)."""

    cdr_record_bytes: int = 64
    metric_row_bytes: int = 32
    transaction_bytes: int = 96
    alert_bytes: int = 128


@dataclass
class Scenario:
    """Everything simulate() needs: data spec, sizes, pipeline parameters."""

    spec: synth.ScenarioSpec
    sizes: RecordSizes = field(default_factory=RecordSizes)
    clean_cfg: CleanConfig = field(default_factory=CleanConfig)
    detector_cfg: DetectorConfig = field(default_factory=DetectorConfig)
    filter_cfg: FilterConfig = field(default_factory=FilterConfig)
    mine_cfg: MineConfig = field(default_factory=MineConfig)
    z_symptom: float = 3.0


@dataclass
class CostReport:
    strategy: Strategy
    phases: dict[str, dict[str, dict[str, int]]]  # phase -> link -> {up, down}
    total_bytes: int
    event_latencies: list[float]
    mean_latency: float
    max_latency: float
    model_location: dict[str, str]

    def link_totals(self) -> dict[str, dict[str, int]]:
        totals: dict[str, dict[str, int]] = {}
        for per_link in self.phases.values():
            for link_key, counts in per_link.items():
                entry = totals.setdefault(link_key, {"up": 0, "down": 0})
                entry["up"] += counts["up"]
                entry["down"] += counts["down"]
        return totals

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "total_bytes": self.total_bytes,
            "links": self.link_totals(),
            "phases": self.phases,
            "event_latencies": self.event_latencies,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "model_location": self.model_location,
        }


class _Accounting:
    def __init__(self) -> None:
        self.phases: dict[str, dict[str, dict[str, int]]] = {}

    def add(self, phase: str, child: str, parent: str, up: int = 0, down: int = 0) -> None:
        if up == 0 and down == 0:
            return
        link = self.phases.setdefault(phase, {}).setdefault(
            f"{child}->{parent}", {"up": 0, "down": 0}
        )
        link["up"] += up
        link["down"] += down

    def total(self) -> int:
        return sum(
            counts["up"] + counts["down"]
            for per_link in self.phases.values()
            for counts in per_link.values()
        )


@dataclass
class _Prepared:
    """Strategy-independent pipeline state."""

    train_clean: list[MetricSeries]
    tests: list[MetricSeries]
    kpi_series: list[MetricSeries]
    cells: list[str]
    upload_bytes: dict[Strategy, dict[str, int]]  # strategy -> cell -> bytes shipped up for training
    window_bytes: dict[str, int]  # cell -> one window of all its series, the CENTRALIZED event upload
    detector_cfg: DetectorConfig


def _prepare(scenario: Scenario) -> _Prepared:
    spec = scenario.spec
    calls, kqi_series, kpi_series, catalog, _ = synth.generate_series(spec)
    derived = aggregate_cdr(calls, spec.window_len)

    detector_cfg = scenario.detector_cfg.with_catalog_bounds(catalog)

    row, record = scenario.sizes.metric_row_bytes, scenario.sizes.cdr_record_bytes
    cells = spec.cell_ids()
    upload_bytes = {strategy: dict.fromkeys(cells, 0) for strategy in Strategy}
    window_bytes = dict.fromkeys(cells, 0)
    train_clean: list[MetricSeries] = []
    tests: list[MetricSeries] = []
    for aggregated, group in ((True, derived), (False, kqi_series + kpi_series)):
        for series in group:
            train_raw, test = chrono_split(series, spec.train_fraction)
            train_bytes = len(train_raw.values) * row
            # bytes shipped under CENTRALIZED, EDGE_INFERENCE and FOG
            if not aggregated:
                shipped = (len(series.values) * row, train_bytes, train_bytes)
            elif series.metric_name == "call_attempts":  # per-cell call totals, from aggregates only
                train_calls = series.values[series.window_starts < spec.train_cutoff_window]
                shipped = (int(series.values.sum()) * record, int(train_calls.sum()) * record, train_bytes)
            else:
                shipped = (0, 0, train_bytes)
            for strategy, n_bytes in zip(Strategy, shipped):
                upload_bytes[strategy][series.cell_id] += n_bytes
            window_bytes[series.cell_id] += row
            cleaned, _ = clean(train_raw, scenario.clean_cfg)
            train_clean.append(cleaned)
            tests.append(test)
    return _Prepared(
        train_clean=train_clean,
        tests=tests,
        kpi_series=kpi_series,
        cells=cells,
        upload_bytes=upload_bytes,
        window_bytes=window_bytes,
        detector_cfg=detector_cfg,
    )


def _detect(model: BaselineModel, prepared: _Prepared, scenario: Scenario) -> list[AnomalyEvent]:
    events: list[AnomalyEvent] = []
    for test in prepared.tests:
        if test.kind != MetricKind.KQI:
            continue
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
    for cell in scenario.spec.cell_ids():
        if cell not in topology.cell_assignment:
            raise UnassignedCell(cell)

    prepared = _prepare(scenario)
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
    for cell in prepared.cells:
        cells_by_edge.setdefault(edge_of(cell), []).append(cell)
    active_edges = sorted(cells_by_edge)
    active_fogs = sorted({fog_of(e) for e in active_edges})

    def relay_up(phase: str, edge: str, n_bytes: int) -> None:
        fog = fog_of(edge)
        acct.add(phase, edge, fog, up=n_bytes)
        acct.add(phase, fog, cloud, up=n_bytes)

    def broadcast_model(phase: str, n_bytes: int) -> None:
        if n_bytes == 0:
            return
        for fog in active_fogs:
            acct.add(phase, fog, cloud, down=n_bytes)
        for edge in active_edges:
            acct.add(phase, edge, fog_of(edge), down=n_bytes)

    # --- training + model placement -------------------------------------
    partials_by_fog: dict[str, BaselineModel] = {}
    if strategy in (Strategy.CENTRALIZED, Strategy.EDGE_INFERENCE):
        model = (
            fit_baseline(prepared.train_clean, prepared.detector_cfg)
            if prepared.train_clean
            else BaselineModel.empty(prepared.detector_cfg)
        )
    else:
        for fog in active_fogs:
            fog_cells = {c for e in topology.edges_of(fog) for c in cells_by_edge.get(e, [])}
            partition = [s for s in prepared.train_clean if s.cell_id in fog_cells]
            if partition:
                partials_by_fog[fog] = fit_baseline(partition, prepared.detector_cfg)
        model = (
            merge_baselines(list(partials_by_fog.values()))
            if partials_by_fog
            else BaselineModel.empty(prepared.detector_cfg)
        )

    phase = "data_upload" if strategy == Strategy.CENTRALIZED else "train_upload"
    for edge in active_edges:
        n_bytes = sum(prepared.upload_bytes[strategy][c] for c in cells_by_edge[edge])
        if strategy == Strategy.FOG:  # training series stop at the fog node
            acct.add(phase, edge, fog_of(edge), up=n_bytes)
        else:
            relay_up(phase, edge, n_bytes)
    for fog, partial in partials_by_fog.items():
        acct.add("summary_upload", fog, cloud, up=_model_bytes(partial))
    if strategy != Strategy.CENTRALIZED:
        broadcast_model("model_broadcast", _model_bytes(model))

    # --- detection + transactions ----------------------------------------
    events = _detect(model, prepared, scenario)
    transactions = build_transactions(events, prepared.kpi_series, model, scenario.z_symptom)

    tx_by_edge: dict[str, list[Transaction]] = {e: [] for e in active_edges}
    for t in transactions:
        tx_by_edge[edge_of(t.key[0])].append(t)

    total = len(transactions)
    if strategy == Strategy.CENTRALIZED:
        rules = mine_rare_rules(transactions, scenario.mine_cfg)
        for event in events:
            acct.add("alert_downlink", edge_of(event.cell_id), fog_of(edge_of(event.cell_id)), down=sizes.alert_bytes)
            acct.add("alert_downlink", fog_of(edge_of(event.cell_id)), cloud, down=sizes.alert_bytes)
    elif strategy == Strategy.EDGE_INFERENCE:
        for edge in active_edges:
            relay_up("transaction_upload", edge, len(tx_by_edge[edge]) * sizes.transaction_bytes)
        rules = mine_rare_rules(transactions, scenario.mine_cfg)
    else:  # FOG
        tables = []
        for fog in active_fogs:
            fog_tx: list[Transaction] = []
            for edge in topology.edges_of(fog):
                if edge in tx_by_edge:
                    n_bytes = len(tx_by_edge[edge]) * sizes.transaction_bytes
                    acct.add("transaction_upload", edge, fog, up=n_bytes)
                    fog_tx.extend(tx_by_edge[edge])
            table = itemset_count_tables(fog_tx, scenario.mine_cfg.max_antecedent)
            tables.append(table)
            if table.total:
                payload = json.dumps(table.to_json_dict(), sort_keys=True).encode("utf-8")
                acct.add("counts_upload", fog, cloud, up=len(payload))
        merged = merge_count_tables(tables) if tables else None
        rules = mine_from_counts(merged, scenario.mine_cfg) if merged else []
        total = merged.total if merged else 0
    built_at = max((t.key[1] for t in transactions), default=0)
    db = update_db(empty_db(), rules, built_at=built_at, transaction_total=total)

    # --- per-event response latency ---------------------------------------
    latencies: list[float] = []
    for event in events:
        if strategy != Strategy.CENTRALIZED:
            # inference is local to the edge; no link time on the event path
            latencies.append(0.0)
            continue
        edge = edge_of(event.cell_id)
        edge_link, fog_link = topology.links[edge], topology.links[fog_of(edge)]
        window_bytes = prepared.window_bytes[event.cell_id]
        up = edge_link.transfer_time(window_bytes) + fog_link.transfer_time(window_bytes)
        down = fog_link.transfer_time(sizes.alert_bytes) + edge_link.transfer_time(sizes.alert_bytes)
        latencies.append(up + down)

    locations = {
        Strategy.CENTRALIZED: {"training": "cloud", "inference": "cloud", "mining": "cloud"},
        Strategy.EDGE_INFERENCE: {"training": "cloud", "inference": "edge", "mining": "cloud"},
        Strategy.FOG: {
            "training": "fog",
            "merge": "cloud",
            "inference": "edge",
            "mining": "cloud",
        },
    }[strategy]

    report = CostReport(
        strategy=strategy,
        phases=acct.phases,
        total_bytes=acct.total(),
        event_latencies=latencies,
        mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        max_latency=max(latencies) if latencies else 0.0,
        model_location=locations,
    )
    return report, model, db


def compare_models(a: BaselineModel, b: BaselineModel) -> bool:
    """Field-exact model equality (config, metadata, sketch counts)."""
    return a.config == b.config and a.metric_meta == b.metric_meta and a.sketches == b.sketches


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
    # a sizeable drop probability keeps drop_rate off the degenerate
    # all-zero lattice point, where per-hour MAD estimates collapse to zero
    spec.cdr = synth.CdrTraffic(calls_per_window=24.0, drop_prob=0.125)
    return Scenario(
        spec=spec,
        detector_cfg=DetectorConfig(bin_count=64, tau=4.5, min_samples=12),
        filter_cfg=FilterConfig(min_peak_score=5.0),
        mine_cfg=MineConfig(
            s_min_count=1, s_max_fraction=0.75, c_min=0.6, lift_min=1.1, max_antecedent=3
        ),
    )
