"""Command-line pipeline: gen, train, detect, mine, diagnose, fogsim, eval, report.

Configuration resolves in three layers: the config dataclasses' defaults,
an optional --config JSON file (decoded strictly, see ``jsondoc``), and
per-flag overrides (flags win). Diagnostics go to stderr; data goes to the
designated output files or stdout. Exit codes: 0 success, 1 domain error
(e.g. too few points after cleaning), 2 usage or IO error.

Re-running any subcommand with identical inputs and configuration writes
byte-identical outputs: generation is seed-deterministic, JSON documents
are key-sorted, and database timestamps derive from the data, not from the
wall clock.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Sequence

from . import synth
from .baseline import (
    DetectorConfig,
    fit_baseline,
    load_model,
    save_model,
    score_series,
)
from .cleaning import CleanConfig, CleanReport, after_training, clean
from .errors import CellwatchError, SchemaMismatch
from .fingerprints import (
    MineConfig,
    SymptomItem,
    empty_db,
    itemset_from_tokens,
    build_transactions,
    load_db,
    mine_rare_rules,
    save_db,
    update_db,
)
from .fogsim import (
    CostReport,
    Scenario,
    Strategy,
    compare_dbs,
    compare_models,
    default_scenario,
    default_topology,
    load_topology,
    simulate,
)
from .ingest import (
    CDR_DERIVED_METRICS,
    Catalog,
    MetricKind,
    MetricSeries,
    aggregate_cdr,
    load_catalog,
    parse_cdr,
    parse_metric_csv,
)
from .jsondoc import MalformedJson, NotUtf8, decode, dumps, encode, read, read_text, require_object, too_deep, write
from .postfilter import AnomalyEvent, FilterConfig, apply_filters
from .rca import RankedDoc, diagnose, symptom_sets_for_events
from .synth import DiagnosisOutcome, EvalReport, GroundTruth, evaluate

log = logging.getLogger("cellwatch")


@dataclass(frozen=True)
class PipelineConfig:
    train_fraction: float = 0.7

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass(frozen=True)
class RcaConfig:
    k: int = 3
    match_threshold: float = 0.5
    z_symptom: float = 3.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= self.match_threshold <= 1:
            raise ValueError("match_threshold must be in [0, 1]")
        if not 0 < self.z_symptom < math.inf:
            raise ValueError("z_symptom must be > 0 and finite")


@dataclass(frozen=True)
class RunConfig:
    """A --config document: one section per stage, defaults from each dataclass."""

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    clean: CleanConfig = field(default_factory=CleanConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)
    mine: MineConfig = field(default_factory=MineConfig)
    rca: RcaConfig = field(default_factory=RcaConfig)


def _read_config_doc(path: str | Path) -> dict:
    """A --config or --scenario document; detector bounds come from the catalog only."""
    doc = require_object(read(path))
    if isinstance(doc.get("detector"), dict) and "bounds" in doc["detector"]:
        raise SchemaMismatch("detector.bounds: unknown key (set value_range in the catalog)")
    return doc


def _load_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """Dataclass defaults <- --config file <- flags (flags win), and the file's document."""
    doc = _read_config_doc(args.config) if args.config else {}
    cfg = decode(RunConfig, doc)
    for section in fields(RunConfig):
        values = getattr(cfg, section.name)
        flags = {f.name: getattr(args, f.name, None) for f in fields(values)}
        flags = {name: value for name, value in flags.items() if value is not None}
        cfg = replace(cfg, **{section.name: replace(values, **flags)})
    return cfg, doc


def _write_jsonl(objs: list, path: str | Path) -> None:
    lines = [json.dumps(encode(obj), sort_keys=True) for obj in objs]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _read_jsonl(path: str | Path) -> list[tuple[str, dict]]:
    """Each non-blank line's JSON object, with ``line N`` to prefix its key paths."""
    docs = []
    for n, line in enumerate(read_text(path).split("\n"), start=1):
        if line.strip():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedJson(path, exc, lines_before=n - 1) from None
            except RecursionError:
                raise MalformedJson(path, too_deep(line), lines_before=n - 1) from None
            docs.append((f"line {n}", require_object(doc, f"line {n}")))
    return docs


def _load_all_series(args: argparse.Namespace, catalog: Catalog, kind: MetricKind) -> list[MetricSeries]:
    """The requested metric file's series plus the CDR-derived ones when given; each (cell, metric) from one input."""
    series: list[MetricSeries] = []
    path = getattr(args, kind.value.lower(), None)
    if path:
        series.extend(parse_metric_csv(path, kind, catalog))
    if kind == MetricKind.KQI and getattr(args, "cdr", None):
        window_len = catalog["call_attempts"].window_len if "call_attempts" in catalog else 0
        for name, polarity in CDR_DERIVED_METRICS.items():
            info = catalog.get(name)
            if info is None or (info.kind, info.polarity, info.window_len) != (MetricKind.KQI, polarity, window_len):
                raise CellwatchError(
                    "catalog must declare the CDR-derived metrics (call_attempts, drop_rate, mean_duration) when"
                    f" --cdr is used: {name} as a KQI of polarity {polarity.value} with call_attempts' window length"
                )
        derived = aggregate_cdr(parse_cdr(args.cdr), window_len)
        both = {(s.cell_id, s.metric_name) for s in series} & {(s.cell_id, s.metric_name) for s in derived}
        if both:
            cell, metric = min(both)
            raise CellwatchError(
                f"{cell}/{metric} is in both --kqi {path} and --cdr {args.cdr}; give each pair one source"
            )
        series.extend(derived)
    series.sort(key=lambda s: (s.cell_id, s.metric_name))
    return series


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = synth.load_spec(args.spec) if args.spec else synth.default_spec()
    paths, truth = synth.generate(spec, args.out, seed=args.seed)
    log.info("wrote %s", ", ".join(str(p) for p in vars(paths).values()))
    log.info("planted %d events, %d rules", len(truth.planted_events), len(truth.planted_rules))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg, _ = _load_config(args)
    catalog = load_catalog(args.catalog)
    series = _load_all_series(args, catalog, MetricKind.KQI)
    series += _load_all_series(args, catalog, MetricKind.KPI)
    if not series:
        raise CellwatchError("no input series; pass --kqi/--kpi/--cdr")
    cleaned, report = clean(series, cfg.clean, cfg.pipeline.train_fraction)
    del series  # free the parsed series before the fit; the cleaned training spans are all it needs
    model = fit_baseline(cleaned, cfg.detector.with_catalog_bounds(catalog))
    save_model(model, args.out)
    if args.clean_report:
        write(report, args.clean_report)
    log.info(
        "trained %d keys over %d series (removed %d missing, %d extremes)",
        len(model.sketches),
        len(cleaned),
        report.missing_removed,
        report.extremes_removed,
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    cfg, doc = _load_config(args)
    catalog = load_catalog(args.catalog)
    model = load_model(args.model)
    series = _load_all_series(args, catalog, MetricKind.KQI)
    if not series:
        raise CellwatchError("no KQI series; pass --kqi and/or --cdr")
    tests = after_training(series, model.trained_through)
    if len(tests) < len(series):
        log.warning("%d of %d series have no window after %s, the model's last trained window",
                    len(series) - len(tests), len(series), model.trained_through)
    # the model's own tau, unless this run names one
    tau = cfg.detector.tau if args.tau is not None or "tau" in doc.get("detector", {}) else None
    filter_cfg = cfg.filters
    events: list[AnomalyEvent] = []
    for test in tests:
        scored = score_series(model, test, tau=tau)
        events.extend(
            apply_filters(scored, filter_cfg, cell_id=test.cell_id, metric_name=test.metric_name)
        )
    _write_jsonl(events, args.out)
    log.info("flagged %d events over %d series", len(events), len(tests))
    return 0


def _check_event(event: AnomalyEvent, where: str, seen: dict[tuple[str, str, int], str]) -> AnomalyEvent:
    """``event`` if its window starts fit int64 and are in order, else SchemaMismatch naming ``where`` and the field.

    ``seen`` maps the (cell, metric, start window) of each earlier event of the file to its ``where``;
    an event that repeats one is a SchemaMismatch naming both.
    """
    for name in ("start_window", "peak_window", "end_window"):
        value = getattr(event, name)
        if not -(2**63) <= value < 2**63:
            raise SchemaMismatch(f"{where}.{name}: {value} is outside the int64 range")
    if event.peak_window < event.start_window:
        raise SchemaMismatch(f"{where}.peak_window: {event.peak_window} is before start_window {event.start_window}")
    if event.end_window < event.peak_window:
        raise SchemaMismatch(f"{where}.end_window: {event.end_window} is before peak_window {event.peak_window}")
    _check_new((event.cell_id, event.metric_name, event.start_window), where, seen)
    return event


def _check_new(key: tuple[str, str, int], where: str, seen: dict[tuple[str, str, int], str]) -> None:
    """Record that ``where`` holds ``key``, a (cell, metric, start window); a repeat is a SchemaMismatch naming both."""
    if key in seen:
        raise SchemaMismatch(f"{where}: {key[0]}/{key[1]} from window {key[2]} repeats {seen[key]}")
    seen[key] = where


def _decode_events(docs: list[tuple[str, dict]]) -> list[AnomalyEvent]:
    seen: dict[tuple[str, str, int], str] = {}
    return [_check_event(decode(AnomalyEvent, doc, where), where, seen) for where, doc in docs]


def _load_events(path: str | Path) -> list[AnomalyEvent]:
    return _decode_events(_read_jsonl(path))


@dataclass
class _DiagnosisLine:
    """One line of a diagnoses file: an event, its symptom items and its ``DiagnosisDoc``."""

    event: AnomalyEvent
    items: list[str]
    consequent: str
    # DiagnosisDoc's fields, not inherited: decode reports a missing key in this field order
    matched: bool
    match_threshold: float
    ranked: list[RankedDoc]


def _decode_diagnoses(docs: list[tuple[str, dict]]) -> list[_DiagnosisLine]:
    lines = []
    seen: dict[tuple[str, str, int], str] = {}
    for where, doc in docs:
        lines.append(decode(_DiagnosisLine, doc, where))
        _check_event(lines[-1].event, f"{where}.event", seen)
    return lines


def _load_labels(path: str | Path) -> dict[tuple[frozenset[SymptomItem], str], str]:
    """The cause label of each (antecedent, consequent) rule; a rule labelled twice is a SchemaMismatch naming both."""
    entries = decode(synth.Labels, read(path)).labels
    first: dict[tuple[frozenset[SymptomItem], str], int] = {}
    parsed: dict[str, SymptomItem] = {}
    for i, entry in enumerate(entries):
        key = (itemset_from_tokens(entry.antecedent, f"labels[{i}].antecedent", parsed), entry.consequent)
        if key in first:
            rule = f"{' & '.join(entry.antecedent)} -> {entry.consequent}"
            raise SchemaMismatch(f"labels[{i}]: {rule} repeats labels[{first[key]}]")
        first[key] = i
    return {key: entries[i].cause_label for key, i in first.items()}


def _cmd_mine(args: argparse.Namespace) -> int:
    cfg, _ = _load_config(args)
    catalog = load_catalog(args.catalog)
    model = load_model(args.model)
    events = _load_events(args.events)
    kpi_series = parse_metric_csv(args.kpi, MetricKind.KPI, catalog)
    transactions = build_transactions(events, kpi_series, model, z_symptom=cfg.rca.z_symptom)
    rules = mine_rare_rules(transactions, cfg.mine)
    base = load_db(args.db_in) if args.db_in else empty_db()
    labels = _load_labels(args.labels) if args.labels else {}
    built_at = max((t.key[1] for t in transactions), default=base.built_at)
    db = update_db(
        base, rules, labels, built_at=built_at, transaction_total=len(transactions)
    )
    save_db(db, args.out)
    log.info(
        "mined %d rules from %d transactions (%d stored)",
        len(rules),
        len(transactions),
        len(db.rules),
    )
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    cfg, _ = _load_config(args)
    catalog = load_catalog(args.catalog)
    model = load_model(args.model)
    db = load_db(args.db)
    events = _load_events(args.events)
    kpi_series = parse_metric_csv(args.kpi, MetricKind.KPI, catalog)
    symptom_sets = symptom_sets_for_events(
        events, kpi_series, model, z_symptom=cfg.rca.z_symptom
    )
    lines = []
    for symptoms in symptom_sets:
        result = diagnose(db, symptoms, k=cfg.rca.k, match_threshold=cfg.rca.match_threshold)
        items = sorted(it.token for it in symptoms.items)
        lines.append(_DiagnosisLine(symptoms.event, items, symptoms.consequent, **vars(result.to_doc())))
    _write_jsonl(lines, args.out)
    log.info("diagnosed %d events (%d matched)", len(lines), sum(line.matched for line in lines))
    return 0


def _load_scenario(path: str | Path) -> Scenario:
    """The stock fog scenario; each key of the document replaces its section, decoded from the
    section's dataclass defaults."""
    return decode(Scenario, {**encode(default_scenario()), **_read_config_doc(path)})


def _cmd_fogsim(args: argparse.Namespace) -> int:
    topology = load_topology(args.topology) if args.topology else default_topology()
    scenario = _load_scenario(args.scenario) if args.scenario else default_scenario()
    if args.compare:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        results = {strategy: simulate(topology, strategy, scenario) for strategy in Strategy}
        rows = [("strategy", "total_bytes", "mean_latency_s", "max_latency_s", "events", "rules")]
        for strategy, (report, _, db) in results.items():
            write(report, out_dir / f"{strategy.value.lower()}.json")
            rows.append(
                (
                    strategy.value,
                    str(report.total_bytes),
                    f"{report.mean_latency:.4f}",
                    f"{report.max_latency:.4f}",
                    str(len(report.event_latencies)),
                    str(len(db.rules)),
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        _, fog_model, fog_db = results[Strategy.FOG]
        _, cent_model, cent_db = results[Strategy.CENTRALIZED]
        print(f"models_equal: {compare_models(fog_model, cent_model)}")
        print(f"dbs_equal: {compare_dbs(fog_db, cent_db)}")
        return 0
    strategy = Strategy(args.strategy)
    report, _model, _db = simulate(topology, strategy, scenario)
    write(report, args.out)
    log.info(
        "%s: %d bytes, mean latency %.4fs over %d events",
        strategy.value,
        report.total_bytes,
        report.mean_latency,
        len(report.event_latencies),
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    events = _load_events(args.events)
    truth = decode(GroundTruth, read(args.truth))
    planted: dict[tuple[str, str, int], str] = {}
    for i, p in enumerate(truth.planted_events):
        _check_new((p.cell_id, p.metric, p.start_window), f"planted_events[{i}]", planted)
    outcomes: list[DiagnosisOutcome | None] | None = None
    if args.diagnoses:
        event_keys = {(e.cell_id, e.metric_name, e.start_window) for e in events}
        by_event = {}
        docs = _read_jsonl(args.diagnoses)
        for (where, _), d in zip(docs, _decode_diagnoses(docs)):
            key = (d.event.cell_id, d.event.metric_name, d.event.start_window)
            if key not in event_keys:
                message = f"{key[0]}/{key[1]} from window {key[2]} is not an event of {args.events}"
                raise SchemaMismatch(f"{where}.event: {message}")
            top = d.ranked[0].cause if d.ranked else None
            by_event[key] = DiagnosisOutcome(matched=d.matched, top_label=top)
        outcomes = [
            by_event.get((e.cell_id, e.metric_name, e.start_window)) for e in events
        ]
    report = evaluate(events, outcomes, truth)
    if args.out:
        write(report, args.out)
    else:
        sys.stdout.write(dumps(report))
    return 0


def _summarize(path: Path) -> list[str]:
    if path.suffix == ".jsonl":
        docs = _read_jsonl(path)
        if not docs:
            return ["empty JSON Lines file"]
        if "peak_score" in docs[0][1]:
            events = _decode_events(docs)
            lines = [f"{len(events)} anomaly events"]
            for e in events[:20]:
                lines.append(
                    f"  {e.cell_id} {e.metric_name} windows {e.start_window}"
                    f"..{e.end_window} peak {e.peak_score:.2f} ({e.direction.value})"
                )
            if len(events) > 20:
                lines.append(f"  ... and {len(events) - 20} more")
            return lines
        if "matched" in docs[0][1]:
            diagnoses = _decode_diagnoses(docs)
            matched = sum(1 for d in diagnoses if d.matched)
            lines = [f"{len(diagnoses)} diagnoses, {matched} matched"]
            for d in diagnoses[:20]:
                top = d.ranked[0] if d.ranked else None
                cause = f"{top.cause} @ {top.distance:.3f}" if top else "no candidates"
                lines.append(f"  {d.event.cell_id} {d.event.metric_name}: {cause}")
            return lines
        return [f"{len(docs)} JSON Lines records"]

    doc = require_object(read(path))
    if "keys" in doc and "metrics" in doc:
        model = load_model(path)
        return [
            f"baseline model: {len(model.sketches)} keys over {len(model.metric_meta)} metrics,"
            f" trained through {model.trained_through}",
            f"  config: {json.dumps(encode(model.config), sort_keys=True)}",
        ]
    if "rules" in doc:
        db = load_db(path)
        lines = [f"fingerprint db: {len(db.rules)} rules over {db.transaction_total} transactions"]
        for rule in db.rules[:20]:
            lines.append(
                f"  {' & '.join(sorted(it.token for it in rule.antecedent))} -> {rule.consequent}"
                f"  conf={rule.confidence:.3f} lift={rule.lift:.2f}"
                f" count={rule.support_count} [{rule.cause_label or 'UNLABELED'}]"
            )
        return lines
    if "precision" in doc:
        report = decode(EvalReport, doc)
        return [
            f"precision {report.precision:.3f}  recall {report.recall:.3f}"
            f"  rca_top1 {report.rca_top1_accuracy:.3f}",
            f"  counts: {json.dumps(report.counts, sort_keys=True)}",
        ]
    if "strategy" in doc and "total_bytes" in doc:
        cost = decode(CostReport, doc)
        return [
            f"{cost.strategy.value}: {cost.total_bytes} bytes,"
            f" mean latency {cost.mean_latency:.4f}s over {len(cost.event_latencies)} events",
            f"  model placement: {json.dumps(cost.model_location, sort_keys=True)}",
        ]
    if "missing_removed" in doc:
        cleaned = decode(CleanReport, doc)
        return [
            f"clean report: {cleaned.missing_removed} missing, {cleaned.extremes_removed} extremes removed"
        ]
    if "planted_events" in doc:
        truth = decode(GroundTruth, doc)
        return [
            f"ground truth: {len(truth.planted_events)} planted events,"
            f" {len(truth.planted_rules)} planted rules"
        ]
    return ["unrecognized artifact; top-level keys: " + ", ".join(sorted(doc))]


def _cmd_report(args: argparse.Namespace) -> int:
    for line in _summarize(Path(args.artifact)):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellwatch",
        description="Cell-level anomaly detection, fingerprint mining and fog simulation",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario")
    p.add_argument("--spec", help="scenario spec JSON (defaults to the stock scenario)")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("train", help="clean, split and fit the baseline model")
    p.add_argument("--kqi", help="KQI metric CSV")
    p.add_argument("--kpi", help="KPI metric CSV")
    p.add_argument("--cdr", help="CDR CSV to aggregate into derived KQIs")
    p.add_argument("--catalog", required=True, help="metric catalog JSON")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--clean-report", dest="clean_report", help="clean report JSON output path")
    p.add_argument("--config", help="config JSON overriding built-in defaults")
    p.add_argument("--train-fraction", dest="train_fraction", type=float)
    p.add_argument("--iqr-k", dest="iqr_multiplier", type=float)
    p.add_argument("--min-points", dest="min_points", type=int)
    p.add_argument("--bins", dest="bin_count", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--min-samples", dest="min_samples", type=int)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("detect", help="score the windows after the model's last trained window")
    p.add_argument("--kqi", help="KQI metric CSV")
    p.add_argument("--cdr", help="CDR CSV to aggregate into derived KQIs")
    p.add_argument("--catalog", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="events JSON Lines output path")
    p.add_argument("--config", help="config JSON overriding built-in defaults")
    p.add_argument("--tau", type=float)
    p.add_argument("--persistence-m", dest="persistence_m", type=int)
    p.add_argument("--persistence-n", dest="persistence_n", type=int)
    p.add_argument("--merge-gap", dest="merge_gap", type=int)
    p.add_argument("--min-peak-score", dest="min_peak_score", type=float)
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("mine", help="build transactions and mine fingerprints")
    p.add_argument("--events", required=True, help="events JSON Lines from detect")
    p.add_argument("--kpi", required=True, help="KPI metric CSV")
    p.add_argument("--catalog", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="fingerprint db JSON output path")
    p.add_argument("--db-in", dest="db_in", help="existing db to update")
    p.add_argument("--labels", help="labels JSON mapping rules to cause labels")
    p.add_argument("--config", help="config JSON overriding built-in defaults")
    p.add_argument("--z-symptom", dest="z_symptom", type=float)
    p.add_argument("--s-min-count", dest="s_min_count", type=int)
    p.add_argument("--s-max-fraction", dest="s_max_fraction", type=float)
    p.add_argument("--c-min", dest="c_min", type=float)
    p.add_argument("--lift-min", dest="lift_min", type=float)
    p.add_argument("--max-antecedent", dest="max_antecedent", type=int)
    p.set_defaults(handler=_cmd_mine)

    p = sub.add_parser("diagnose", help="match events against the fingerprint db")
    p.add_argument("--events", required=True)
    p.add_argument("--kpi", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--out", required=True, help="diagnoses JSON Lines output path")
    p.add_argument("--config", help="config JSON overriding built-in defaults")
    p.add_argument("--k", type=int)
    p.add_argument("--match-threshold", dest="match_threshold", type=float)
    p.add_argument("--z-symptom", dest="z_symptom", type=float)
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("fogsim", help="simulate a deployment strategy")
    p.add_argument("--topology", help="topology JSON (defaults to the stock 2-fog tree)")
    p.add_argument("--scenario", help="scenario JSON (defaults to the stock scenario)")
    p.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        default=Strategy.FOG.value,
    )
    p.add_argument("--compare", action="store_true", help="run all strategies and print a table")
    p.add_argument("--out", required=True, help="report path (directory with --compare)")
    p.set_defaults(handler=_cmd_fogsim)

    p = sub.add_parser("eval", help="score detections and diagnoses against ground truth")
    p.add_argument("--events", required=True)
    p.add_argument("--diagnoses")
    p.add_argument("--truth", required=True)
    p.add_argument("--out", help="eval report path (stdout when omitted)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("report", help="summarize any cellwatch JSON artifact")
    p.add_argument("artifact", help="path to a JSON/JSONL artifact")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already written to stderr
        return int(exc.code or 0)
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except CellwatchError as exc:
        log.error("error: %s", exc)
        return 1
    except (OSError, MalformedJson, NotUtf8) as exc:  # before ValueError, the base of the last two
        log.error("io error: %s", exc)
        return 2
    except ValueError as exc:
        log.error("invalid configuration: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
