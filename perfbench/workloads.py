"""The benchmark workloads: inputs from a seed, the timed job, output checks.

Each workload offers the same methods:

* ``setup(seed, tiny, work)`` builds the inputs; the benchmark times it.
* ``load(seed, tiny, work)`` returns the inputs to the job without timing.
* ``job(inputs, out, ops, span)`` is the timed region. ``ops`` counts the
  operations attempted and failed; ``span(name)`` marks one step of the job:
  a trace span in the traced run, a separately timed step otherwise.
* ``artifacts``, ``checks``, ``latencies_ms`` and ``counters`` look at
  a job's result outside the timed region.

``tiny`` selects a small input of the same shape for the benchmark's tests.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ContextManager

from cellwatch import cli, fingerprints, fogsim, rca, synth
from cellwatch.baseline import Direction, model_to_json
from cellwatch.fingerprints import FingerprintDb, MineConfig
from cellwatch.postfilter import AnomalyEvent
from cellwatch.rca import SymptomSet

from fleet import STOCK, TINY, Fleet, generate_fleet

Span = Callable[[str], ContextManager]

# the acceptance suite's criterion-4 knobs for the stock end-to-end run
MINE_FLAGS = ("--s-max-fraction", "0.5", "--c-min", "0.7", "--z-symptom", "3.5")
DIAGNOSE_FLAGS = ("--z-symptom", "3.5")
RCA_K = 3
RCA_THRESHOLD = 0.5


class StepFailed(Exception):
    pass


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            raise StepFailed(what)


def _placeholder_event(consequent: str, window: int) -> AnomalyEvent:
    return AnomalyEvent("", consequent, window, window, 0.0, window, Direction.UP)


class PipelineStock:
    """gen -> train -> detect -> mine -> diagnose -> eval through cellwatch.cli."""

    files = ("model.json", "events.jsonl", "db.json", "diagnoses.jsonl", "eval.json")

    def spec(self, seed: int, tiny: bool) -> synth.ScenarioSpec:
        if tiny:
            return synth.default_spec(n_cells=12, days=5.0, seed=seed)
        return synth.default_spec(seed=seed)

    def setup(self, seed: int, tiny: bool, work: Path) -> None:
        synth.generate(self.spec(seed, tiny), work / "data")

    def load(self, seed: int, tiny: bool, work: Path) -> Path:
        return work / "data"

    def job(self, data: Path, out: Path, ops: Ops, span: Span) -> Path:
        catalog = ("--catalog", str(data / "catalog.json"))
        kqi, kpi, model = str(data / "kqi.csv"), str(data / "kpi.csv"), str(out / "model.json")
        events, db, diagnoses = str(out / "events.jsonl"), str(out / "db.json"), str(out / "diagnoses.jsonl")
        steps = [
            ("train", ["--kqi", kqi, "--kpi", kpi, "--out", model, *catalog]),
            ("detect", ["--kqi", kqi, "--model", model, "--out", events, *catalog]),
            ("mine", ["--events", events, "--kpi", kpi, "--model", model, "--out", db,
                      "--labels", str(data / "labels.json"), *catalog, *MINE_FLAGS]),
            ("diagnose", ["--events", events, "--kpi", kpi, "--model", model, "--db", db,
                          "--out", diagnoses, *catalog, *DIAGNOSE_FLAGS]),
            ("eval", ["--events", events, "--diagnoses", diagnoses,
                      "--truth", str(data / "truth.json"), "--out", str(out / "eval.json")]),
        ]
        for name, args in steps:
            with span(f"cli.{name}"):
                code = cli.main([name, *args])
            ops.record(code == 0, f"cellwatch {name} exited {code}")
        return out

    def artifacts(self, out: Path) -> dict[str, bytes]:
        return {name: (out / name).read_bytes() for name in self.files}

    def checks(self, data: Path, out: Path) -> list[tuple[str, bool]]:
        report = json.loads((out / "eval.json").read_text())
        counts = report["counts"]
        return [
            ("eval.recall>=0.9", report["recall"] >= 0.9),
            ("eval.precision>=0.8", report["precision"] >= 0.8),
            ("eval.rca_top1>=0.9", report["rca_top1_accuracy"] >= 0.9),
            ("eval.rca_considered>=0.75*planted", counts["rca_considered"] >= 0.75 * counts["planted"]),
        ]

    def latencies_ms(self, out: Path) -> list[float]:
        return []

    def counters(self, out: Path) -> dict[str, int]:
        return {}


@dataclass
class FogInputs:
    topology: fogsim.FogTopology
    scenario: fogsim.Scenario


class FogCompare:
    """fogsim.simulate for every strategy: the `cellwatch fogsim --compare` run."""

    def _inputs(self, seed: int, tiny: bool) -> FogInputs:
        scenario = fogsim.default_scenario(seed=seed)
        if tiny:
            scenario.spec.days = 4.0
        return FogInputs(fogsim.default_topology(), scenario)

    def setup(self, seed: int, tiny: bool, work: Path) -> None:
        self._inputs(seed, tiny)

    def load(self, seed: int, tiny: bool, work: Path) -> FogInputs:
        return self._inputs(seed, tiny)

    def job(self, inputs: FogInputs, out: Path, ops: Ops, span: Span) -> dict:
        results = {}
        for strategy in fogsim.Strategy:
            with span(f"fogsim.simulate.{strategy.value}"):
                results[strategy] = fogsim.simulate(inputs.topology, strategy, inputs.scenario)
            ops.record(True)
        return results

    def artifacts(self, results: dict) -> dict[str, bytes]:
        out = {
            f"{s.value.lower()}.json": json.dumps(report.to_json_dict(), sort_keys=True).encode()
            for s, (report, _, _) in results.items()
        }
        _, model, db = results[fogsim.Strategy.FOG]
        out["fog_model.json"] = model_to_json(model).encode()
        out["fog_db.json"] = fingerprints.db_to_json(db).encode()
        return out

    def checks(self, inputs: FogInputs, results: dict) -> list[tuple[str, bool]]:
        cent, cent_model, cent_db = results[fogsim.Strategy.CENTRALIZED]
        edge, _, _ = results[fogsim.Strategy.EDGE_INFERENCE]
        fog, fog_model, fog_db = results[fogsim.Strategy.FOG]
        return [
            ("fog.models_equal", fogsim.compare_models(fog_model, cent_model)),
            ("fog.dbs_equal", fogsim.compare_dbs(fog_db, cent_db)),
            ("fog.bytes<centralized", fog.total_bytes < cent.total_bytes),
            ("fog.latency_order", edge.mean_latency <= fog.mean_latency <= cent.mean_latency),
            ("fog.events_seen", bool(cent.event_latencies)),
        ]

    def latencies_ms(self, results: dict) -> list[float]:
        return []

    def counters(self, results: dict) -> dict[str, int]:
        return {f"fogsim.total_bytes.{s.value}": r.total_bytes for s, (r, _, _) in results.items()}


@dataclass
class FleetInputs:
    fleet: Fleet
    sets: list[SymptomSet]
    cfg: MineConfig


@dataclass
class FleetResult:
    rules: list
    db: FingerprintDb
    loaded: FingerprintDb
    db_path: Path
    diagnoses: list
    latencies_ms: list[float]


class RulesFleet:
    """Fleet-scale rule-base rebuild, then one closed-loop diagnosis per event."""

    def setup(self, seed: int, tiny: bool, work: Path) -> None:
        self.load(seed, tiny, work)

    def load(self, seed: int, tiny: bool, work: Path) -> FleetInputs:
        fleet = generate_fleet(seed, TINY if tiny else STOCK)
        sets = [
            SymptomSet(t.items, t.consequent, _placeholder_event(t.consequent, t.key[1]))
            for t in fleet.transactions
        ]
        return FleetInputs(fleet=fleet, sets=sets, cfg=MineConfig())

    def job(self, inputs: FleetInputs, out: Path, ops: Ops, span: Span) -> FleetResult:
        transactions = inputs.fleet.transactions
        with span("fleet.mine"):
            rules = fingerprints.mine_rare_rules(transactions, inputs.cfg)
        ops.record(True)
        with span("fleet.db"):
            db = fingerprints.update_db(
                fingerprints.empty_db(),
                rules,
                inputs.fleet.labels(),
                built_at=max(t.key[1] for t in transactions),
                transaction_total=len(transactions),
            )
            ops.record(True)
            db_path = out / "db.json"
            fingerprints.save_db(db, db_path)
            ops.record(True)
            loaded = fingerprints.load_db(db_path)
            ops.record(True)
        diagnoses, latencies = [], []
        with span("fleet.diagnose"):
            for symptoms in inputs.sets:
                t0 = time.perf_counter()
                diagnoses.append(rca.diagnose(loaded, symptoms, k=RCA_K, match_threshold=RCA_THRESHOLD))
                latencies.append((time.perf_counter() - t0) * 1e3)
                ops.record(True)
        return FleetResult(rules, db, loaded, db_path, diagnoses, latencies)

    def artifacts(self, result: FleetResult) -> dict[str, bytes]:
        lines = "".join(json.dumps(d.to_json_dict(), sort_keys=True) + "\n" for d in result.diagnoses)
        return {"db.json": result.db_path.read_bytes(), "diagnoses.jsonl": lines.encode()}

    def checks(self, inputs: FleetInputs, result: FleetResult) -> list[tuple[str, bool]]:
        cfg = inputs.cfg
        tables = fingerprints.itemset_count_tables(inputs.fleet.transactions, cfg.max_antecedent)
        labeled = {(r.antecedent, r.consequent): r.cause_label for r in result.db.rules}
        return [
            ("fleet.fp_growth==count_tables", fingerprints.mine_from_counts(tables, cfg) == result.rules),
            ("fleet.planted_patterns_labeled",
             all(labeled.get((a, q)) == label for a, q, label in inputs.fleet.patterns)),
            ("fleet.db_round_trip", result.loaded == result.db
             and fingerprints.db_to_json(result.loaded) == fingerprints.db_to_json(result.db)),
        ]

    def latencies_ms(self, result: FleetResult) -> list[float]:
        """Closed loop: one caller, each diagnose call issued after the previous reply."""
        return result.latencies_ms

    def counters(self, result: FleetResult) -> dict[str, int]:
        return {}


WORKLOADS = {
    "pipeline_stock": PipelineStock(),
    "fog_compare": FogCompare(),
    "rules_fleet": RulesFleet(),
}
