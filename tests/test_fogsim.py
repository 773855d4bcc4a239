import hashlib
import json
import math
import re

import pytest

from cellwatch.errors import InvalidTopology, SchemaMismatch, UnassignedCell
from cellwatch.ingest import aggregate_cdr
from cellwatch.fogsim import (
    RecordSizes,
    Strategy,
    Tier,
    build_topology,
    compare_dbs,
    compare_models,
    default_scenario,
    default_topology,
    default_topology_doc,
    simulate,
)
from cellwatch import synth

from helpers import cells_of, nodes_of, random_fog_case, sparse_traffic_scenario, tiny_scenario


def minimal_topology_doc():
    return {
        "nodes": [
            {"id": "cloud", "tier": "CLOUD", "parent": None},
            {"id": "fog-0", "tier": "FOG", "parent": "cloud"},
            {"id": "edge-0", "tier": "EDGE", "parent": "fog-0"},
            {"id": "edge-1", "tier": "EDGE", "parent": "fog-0"},
        ],
        "links": {
            "fog-0": {"bandwidth_bps": 1e7, "latency_s": 0.01},
            "edge-0": {"bandwidth_bps": 1e6, "latency_s": 0.01},
            "edge-1": {"bandwidth_bps": 1e6, "latency_s": 0.01},
        },
        "cells": {f"cell-{i:03d}": f"edge-{i % 2}" for i in range(4)},
    }


class TestBuildTopology:
    def test_minimal_valid_tree(self):
        topo = build_topology(minimal_topology_doc())
        assert topo.cloud_id == "cloud"
        assert nodes_of(topo, Tier.EDGE) == ["edge-0", "edge-1"]
        assert cells_of(topo, "edge-0") == ["cell-000", "cell-002"]

    def test_two_clouds_rejected(self):
        doc = minimal_topology_doc()
        doc["nodes"].append({"id": "cloud2", "tier": "CLOUD", "parent": None})
        with pytest.raises(InvalidTopology):
            build_topology(doc)

    def test_edge_parented_to_cloud_rejected(self):
        doc = minimal_topology_doc()
        doc["nodes"][2]["parent"] = "cloud"
        with pytest.raises(InvalidTopology):
            build_topology(doc)

    def test_fog_parented_to_fog_rejected(self):
        doc = minimal_topology_doc()
        doc["nodes"].append({"id": "fog-1", "tier": "FOG", "parent": "fog-0"})
        doc["links"]["fog-1"] = {"bandwidth_bps": 1e7, "latency_s": 0.01}
        with pytest.raises(InvalidTopology):
            build_topology(doc)

    def test_cell_on_non_edge_rejected(self):
        doc = minimal_topology_doc()
        doc["cells"]["cell-999"] = "fog-0"
        with pytest.raises(InvalidTopology):
            build_topology(doc)

    def test_missing_link_rejected(self):
        doc = minimal_topology_doc()
        del doc["links"]["edge-1"]
        with pytest.raises(InvalidTopology):
            build_topology(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["nodes"].append({"id": "edge-0", "tier": "EDGE", "parent": "fog-0"}),
             "duplicate node id 'edge-0'"),
            (lambda d: d["nodes"][0].update(parent="fog-0"), "the CLOUD node cannot have a parent"),
            (lambda d: d["nodes"][2].update(parent="fog-9"), "node 'edge-0' has no valid parent"),
            (lambda d: d["links"]["edge-0"].update(bandwidth_bps=0.0), "node 'edge-0' has a non-physical uplink"),
            (lambda d: d["links"]["fog-0"].update(latency_s=-0.01), "node 'fog-0' has a non-physical uplink"),
        ],
        ids=["duplicate_id", "cloud_with_parent", "parent_not_a_node", "zero_bandwidth", "negative_latency"],
    )
    def test_invalid_tree_names_the_fault(self, edit, message):
        doc = minimal_topology_doc()
        edit(doc)
        with pytest.raises(InvalidTopology, match=re.escape(message)):
            build_topology(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["nodes"][1].update(tier="MIST"), "nodes[1].tier: expected one of"),
            (lambda d: d["nodes"][2].pop("id"), "nodes[2].id: missing required key"),
            (lambda d: d["links"]["edge-0"].update(bandwidth_bps="1e6"),
             "links.edge-0.bandwidth_bps: expected a number, got a string"),
            (lambda d: d["cells"].update({"cell-009": 3}), "cells.cell-009: expected a string"),
            (lambda d: d.update(edges=[]), "edges: unknown key"),
        ],
    )
    def test_malformed_document_names_the_key(self, edit, message):
        doc = minimal_topology_doc()
        edit(doc)
        with pytest.raises(SchemaMismatch, match=re.escape(message)):
            build_topology(doc)


def report_sha256(report):
    return hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()


class TestSimulate:
    def test_unassigned_cell_rejected(self):
        topo = build_topology(minimal_topology_doc())
        scenario = tiny_scenario(n_cells=6)  # topology only assigns 4
        with pytest.raises(UnassignedCell):
            simulate(topo, Strategy.CENTRALIZED, scenario)

    def test_centralized_ships_every_record_on_both_hops(self):
        topo = build_topology(minimal_topology_doc())
        scenario = tiny_scenario(anomaly_count=0, calls_per_window=0.0)
        report, _, _ = simulate(topo, Strategy.CENTRALIZED, scenario)
        upload = report.phases["data_upload"]
        # 48 windows x 6 metrics x 32 bytes per cell, 2 cells per edge
        per_edge = 2 * 48 * 6 * 32
        assert upload["edge-0->fog-0"]["up"] == per_edge
        assert upload["edge-1->fog-0"]["up"] == per_edge
        assert upload["fog-0->cloud"]["up"] == 2 * per_edge

    def test_centralized_cdr_bytes_are_count_times_record_size(self):
        # one cell behind a single edge->fog->cloud path; CDR records only
        doc = minimal_topology_doc()
        doc["cells"] = {"cell-000": "edge-0"}
        topo = build_topology(doc)
        scenario = tiny_scenario(n_cells=1, anomaly_count=0, calls_per_window=2.0)
        scenario.spec.metrics = {}
        scenario.spec.causes = []
        scenario.sizes = RecordSizes(cdr_record_bytes=64)
        report, _, _ = simulate(topo, Strategy.CENTRALIZED, scenario)
        calls, _, _, _, _ = synth.generate_series(scenario.spec)
        expected = len(calls) * 64
        upload = report.phases["data_upload"]
        assert upload["edge-0->fog-0"]["up"] == expected
        assert upload["fog-0->cloud"]["up"] == expected

        # EDGE_INFERENCE ships only the calls that start before the test span
        report, _, _ = simulate(topo, Strategy.EDGE_INFERENCE, scenario)
        n_train = int((calls.start_time < scenario.spec.train_cutoff_window).sum())
        assert 0 < n_train < len(calls)
        upload = report.phases["train_upload"]
        assert upload["edge-0->fog-0"]["up"] == n_train * 64
        assert upload["fog-0->cloud"]["up"] == n_train * 64

    def test_relay_phases_conserve_bytes(self):
        topo = default_topology()
        scenario = default_scenario()
        fog_uplinks = {f"{fog}->cloud" for fog in nodes_of(topo, Tier.FOG)}
        # relayed phases, phases that stop at the fog node, phases sent from the fog nodes
        for strategy, relayed, to_fog, from_fog in [
            (Strategy.CENTRALIZED, ["data_upload"], [], []),
            (Strategy.EDGE_INFERENCE, ["train_upload", "transaction_upload"], [], []),
            (Strategy.FOG, [], ["train_upload", "transaction_upload"], ["summary_upload", "counts_upload"]),
        ]:
            report, _, _ = simulate(topo, strategy, scenario)
            for phase in to_fog:
                assert report.phases[phase]
                assert not any(link.endswith("->cloud") for link in report.phases[phase])
            for phase in from_fog:
                assert report.phases[phase]
                assert set(report.phases[phase]) <= fog_uplinks
            for phase in relayed:
                per_link = report.phases[phase]
                for fog in nodes_of(topo, Tier.FOG):
                    from_edges = sum(
                        counts["up"]
                        for link, counts in per_link.items()
                        if link.endswith(f"->{fog}")
                    )
                    to_cloud = per_link.get(f"{fog}->cloud", {"up": 0})["up"]
                    assert from_edges == to_cloud

    def test_zero_record_scenario_has_zero_bytes(self):
        topo = build_topology(minimal_topology_doc())
        scenario = tiny_scenario(anomaly_count=0, calls_per_window=0.0)
        scenario.spec.metrics = {}
        scenario.spec.causes = []
        for strategy in Strategy:
            report, model, db = simulate(topo, strategy, scenario)
            assert report.total_bytes == 0
            assert len(model.sketches) == 0
            assert db.rules == []

    def test_fog_equals_centralized_on_default_scenario(self):
        topo = default_topology()
        scenario = default_scenario()
        _, cent_model, cent_db = simulate(topo, Strategy.CENTRALIZED, scenario)
        _, fog_model, fog_db = simulate(topo, Strategy.FOG, scenario)
        _, edge_model, edge_db = simulate(topo, Strategy.EDGE_INFERENCE, scenario)
        assert compare_models(fog_model, cent_model)
        assert compare_dbs(fog_db, cent_db)
        assert compare_models(edge_model, cent_model)
        assert compare_dbs(edge_db, cent_db)

    def test_fog_equals_centralized_on_sparse_traffic(self):
        # CDR grids of different extents: every strategy scores the windows after the merged trained_through
        topo = default_topology()
        scenario = sparse_traffic_scenario()
        cent, cent_model, cent_db = simulate(topo, Strategy.CENTRALIZED, scenario)
        fog, fog_model, fog_db = simulate(topo, Strategy.FOG, scenario)
        assert compare_models(fog_model, cent_model)
        assert compare_dbs(fog_db, cent_db)
        assert len(fog.event_latencies) == len(cent.event_latencies)

    def test_fog_equals_centralized_on_random_cases(self):
        for seed in range(6):
            topo, scenario = random_fog_case(1000 + seed)
            _, cent_model, cent_db = simulate(topo, Strategy.CENTRALIZED, scenario)
            _, fog_model, fog_db = simulate(topo, Strategy.FOG, scenario)
            assert compare_models(fog_model, cent_model), f"seed {seed}"
            assert compare_dbs(fog_db, cent_db), f"seed {seed}"

    def test_default_scenario_cost_ordering(self):
        topo = default_topology()
        scenario = default_scenario()
        cent, _, _ = simulate(topo, Strategy.CENTRALIZED, scenario)
        fog, _, _ = simulate(topo, Strategy.FOG, scenario)
        edge, _, _ = simulate(topo, Strategy.EDGE_INFERENCE, scenario)
        assert fog.total_bytes < cent.total_bytes
        assert edge.mean_latency <= fog.mean_latency <= cent.mean_latency
        assert cent.mean_latency > 0
        assert len(cent.event_latencies) > 0

    def test_report_deterministic(self):
        topo = default_topology()
        scenario = default_scenario()
        a, _, _ = simulate(topo, Strategy.FOG, scenario)
        b, _, _ = simulate(topo, Strategy.FOG, scenario)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_compare_models_detects_single_count_difference(self):
        topo = default_topology()
        scenario = default_scenario()
        _, model_a, _ = simulate(topo, Strategy.CENTRALIZED, scenario)
        _, model_b, _ = simulate(topo, Strategy.CENTRALIZED, scenario)
        assert compare_models(model_a, model_b)
        model_b.sketches.counts[0, 0] += 1
        assert not compare_models(model_a, model_b)

    @pytest.mark.parametrize(
        "strategy, sha256",
        [
            (Strategy.CENTRALIZED, "1f4f2613165a90eb3c1277f84beff9ba8a93874e70010fc986a1232b3220e004"),
            (Strategy.EDGE_INFERENCE, "449b510daf216af896615a7c4233c69d6d9c25fedeaec419b3cb0750fc63498a"),
            (Strategy.FOG, "f9ca647c709ffc6d72042c0c4a42baf59fa97bd3e542163207d3d48ee1d8e441"),
        ],
        ids=["CENTRALIZED", "EDGE_INFERENCE", "FOG"],
    )
    def test_default_scenario_report_is_pinned(self, strategy, sha256):
        report, _, _ = simulate(default_topology(), strategy, default_scenario())
        assert report_sha256(report) == sha256

    @pytest.mark.parametrize(
        "strategy, sha256",
        [
            (Strategy.CENTRALIZED, "1780ce4e86017a628946d4103ce1ef734c7358f523bd1f5432462305b7fc548f"),
            (Strategy.EDGE_INFERENCE, "fe489e7158d0cb6b5d140972944ca00659f5bde7c61f1a86acc7375013ca8467"),
            (Strategy.FOG, "e4e744d914044701683200c5c1304dc6fe38669e2e4b380f4dfa16c04d4c329b"),
        ],
        ids=["CENTRALIZED", "EDGE_INFERENCE", "FOG"],
    )
    def test_sparse_traffic_report_is_pinned(self, strategy, sha256):
        # Some cells have no calls in their first or last windows, so their
        # aggregated grids are shorter than the scenario's: on some edge,
        # counting calls before the train cutoff differs from cutting each
        # series at its own train fraction.
        scenario = sparse_traffic_scenario()
        spec = scenario.spec
        topology = default_topology()
        calls, _, _, _, _ = synth.generate_series(spec)
        attempts = [s for s in aggregate_cdr(calls, spec.window_len) if s.metric_name == "call_attempts"]
        assert any(s.window_starts[0] > 0 for s in attempts)
        per_series_cut, before_cutoff = {}, {}
        for s in attempts:
            edge = topology.cell_assignment[s.cell_id]
            cut = math.ceil(len(s.values) * spec.train_fraction)
            per_series_cut[edge] = per_series_cut.get(edge, 0) + s.values[:cut].sum()
            train = s.window_starts < spec.train_cutoff_window
            before_cutoff[edge] = before_cutoff.get(edge, 0) + s.values[train].sum()
        assert per_series_cut != before_cutoff

        report, _, _ = simulate(topology, strategy, scenario)
        assert report_sha256(report) == sha256

    def test_model_locations_reported(self):
        topo = default_topology()
        scenario = default_scenario()
        for strategy, locations in [
            (Strategy.CENTRALIZED, {"training": "cloud", "inference": "cloud", "mining": "cloud"}),
            (Strategy.EDGE_INFERENCE, {"training": "cloud", "inference": "edge", "mining": "cloud"}),
            (Strategy.FOG, {"training": "fog", "merge": "cloud", "inference": "edge", "mining": "cloud"}),
        ]:
            report, _, _ = simulate(topo, strategy, scenario)
            assert report.model_location == locations, strategy


def test_default_topology_doc_is_valid():
    topo = build_topology(default_topology_doc())
    assert len(nodes_of(topo, Tier.FOG)) == 2
    assert len(topo.cell_assignment) == 8
