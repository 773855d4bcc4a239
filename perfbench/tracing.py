"""Span recorder and call-site wrappers for the traced benchmark run.

Spans are kept in memory as (name, start, end, parent) and summarised when
the run ends. Wrappers replace a function at the module attribute through
which the pipeline calls it (``cellwatch.cli.fit_baseline``, ...) and are
removed again by ``Tracer.restore``; nothing under ``src/`` is edited.
Counters come from the wrapped calls' arguments and return values, so they
depend only on the inputs and repeat exactly across runs.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import stats


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and call count.

    Self time is a span's duration minus the part of it covered by its
    child spans. Inclusive time counts only outermost spans of a name, so a
    name nested inside itself is not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out: dict[str, dict[str, float]] = {}
    for i, sp in enumerate(spans):
        entry = out.setdefault(sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = sp.end - sp.start
        entry["self_s"] += duration - _covered(children.get(i, []))
        entry["calls"] += 1
        ancestor = sp.parent
        while ancestor is not None and spans[ancestor].name != sp.name:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            entry["s"] += duration
    return out


def merge_summaries(*summaries: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Add summarize() results of separately recorded span lists."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key, value in entry.items():
                into[key] += value
    return out


Counts = Callable[[Any, tuple, dict], dict[str, int]]


class Tracer:
    """Records nested spans and deterministic counters for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, target: str, name: str, counts: Counts | None = None) -> None:
        """Replace ``module.attr`` (``target``) with a span-recording wrapper."""
        module_name, _, attr = target.rpartition(".")
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if counts is not None:
                self.counters.update(counts(result, args, kwargs))
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over and reset what was recorded since the last take."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters


# ---------------------------------------------------------------------------
# What the traced run wraps: (module attribute, span name, counter function)


def _rows(series, args, kwargs):
    return {"ingest.rows_parsed": sum(len(s.points) for s in series)}


def _cleaned(result, args, kwargs):
    report = result[1]
    return {"cleaning.points_removed": report.missing_removed + report.extremes_removed}


def _keys(model, args, kwargs):
    return {"baseline.keys_fit": len(model.sketches)}


def _scored(windows, args, kwargs):
    return {
        "baseline.windows_scored": len(windows),
        "baseline.windows_flagged": sum(1 for w in windows if w.flagged),
    }


def _saved_model(result, args, kwargs):
    return {"baseline.model_bytes": os.path.getsize(args[1])}


def _model_json(text, args, kwargs):
    return {"baseline.model_bytes": len(text.encode("utf-8"))}


def _events(events, args, kwargs):
    return {"postfilter.events": len(events)}


def _transactions(transactions, args, kwargs):
    return {
        "fingerprints.transactions": len(transactions),
        "fingerprints.empty_transactions": sum(1 for t in transactions if not t.items),
    }


def _rules(rules, args, kwargs):
    return {"fingerprints.rules": len(rules)}


def _itemsets(tables, args, kwargs):
    return {"fingerprints.itemsets_counted": len(tables.global_counts)}


def _cdr(generated, args, kwargs):
    return {"synth.cdr_records": len(generated[0])}


class _Scanned:
    """rca.diagnose counter; candidates per (db, consequent) are counted once."""

    def __init__(self) -> None:
        self._cache: dict[tuple[int, str], int] = {}

    def __call__(self, diagnosis, args, kwargs):
        db, symptoms = args[0], args[1]
        key = (id(db), symptoms.consequent)
        if key not in self._cache:
            self._cache[key] = sum(1 for r in db.rules if r.consequent == symptoms.consequent)
        return {"rca.rules_scanned": self._cache[key], "rca.matched": int(diagnosis.matched)}


def install(tracer: Tracer) -> None:
    """Wrap every public function at the names the pipeline calls it through."""
    scanned = _Scanned()
    plan: list[tuple[str, str, Counts | None]] = [
        # cellwatch.cli
        ("cellwatch.cli.parse_metric_csv", "ingest.parse_metric_csv", _rows),
        ("cellwatch.cli.clean", "cleaning.clean", _cleaned),
        ("cellwatch.cli.fit_baseline", "baseline.fit_baseline", _keys),
        ("cellwatch.cli.save_model", "baseline.save_model", _saved_model),
        ("cellwatch.cli.load_model", "baseline.load_model", None),
        ("cellwatch.cli.score_series", "baseline.score_series", _scored),
        ("cellwatch.cli.apply_filters", "postfilter.apply_filters", _events),
        ("cellwatch.cli.build_transactions", "fingerprints.build_transactions", _transactions),
        ("cellwatch.cli.mine_rare_rules", "fingerprints.mine_rare_rules", _rules),
        ("cellwatch.cli.save_db", "fingerprints.save_db", None),
        ("cellwatch.cli.load_db", "fingerprints.load_db", None),
        ("cellwatch.cli.symptom_sets_for_events", "rca.symptom_sets_for_events", None),
        ("cellwatch.cli.diagnose", "rca.diagnose", scanned),
        ("cellwatch.cli.evaluate", "synth.evaluate", None),
        # cellwatch.rca
        ("cellwatch.rca.build_transactions", "fingerprints.build_transactions", _transactions),
        # cellwatch.fogsim
        ("cellwatch.fogsim.aggregate_cdr", "ingest.aggregate_cdr", None),
        ("cellwatch.fogsim.clean", "cleaning.clean", _cleaned),
        ("cellwatch.fogsim.fit_baseline", "baseline.fit_baseline", _keys),
        ("cellwatch.fogsim.merge_baselines", "baseline.merge_baselines", None),
        ("cellwatch.fogsim.model_to_json", "baseline.model_to_json", _model_json),
        ("cellwatch.fogsim.score_series", "baseline.score_series", _scored),
        ("cellwatch.fogsim.apply_filters", "postfilter.apply_filters", _events),
        ("cellwatch.fogsim.build_transactions", "fingerprints.build_transactions", _transactions),
        ("cellwatch.fogsim.mine_rare_rules", "fingerprints.mine_rare_rules", _rules),
        ("cellwatch.fogsim.itemset_count_tables", "fingerprints.itemset_count_tables", _itemsets),
        ("cellwatch.fogsim.merge_count_tables", "fingerprints.merge_count_tables", None),
        ("cellwatch.fogsim.mine_from_counts", "fingerprints.mine_from_counts", _rules),
        # cellwatch.synth (generate_series is looked up on the module by
        # fogsim and by synth.generate; generate imports the CSV writer
        # from ingest when it runs)
        ("cellwatch.synth.generate_series", "synth.generate_series", _cdr),
        ("cellwatch.synth.generate", "synth.generate", None),
        ("cellwatch.ingest.write_metric_csv", "ingest.write_metric_csv", None),
        # the rules_fleet job calls these through their own modules
        ("cellwatch.fingerprints.mine_rare_rules", "fingerprints.mine_rare_rules", _rules),
        ("cellwatch.fingerprints.save_db", "fingerprints.save_db", None),
        ("cellwatch.fingerprints.load_db", "fingerprints.load_db", None),
        ("cellwatch.rca.diagnose", "rca.diagnose", scanned),
    ]
    for target, name, counts in plan:
        tracer.wrap(target, name, counts)


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run, in the order BENCHMARK.json lists them

TIMED = ("s", "self_s", "calls")
SPANS: list[tuple[str, tuple[str, ...]]] = [
    ("ingest.parse_metric_csv", TIMED),
    ("ingest.write_metric_csv", TIMED),
    ("ingest.aggregate_cdr", TIMED),
    ("cleaning.clean", TIMED),
    ("baseline.fit_baseline", TIMED),
    ("baseline.score_series", TIMED),
    ("baseline.load_model", TIMED),
    ("baseline.save_model", TIMED),
    ("baseline.merge_baselines", TIMED),
    ("baseline.model_to_json", TIMED),
    ("postfilter.apply_filters", TIMED),
    ("fingerprints.build_transactions", TIMED),
    ("fingerprints.mine_rare_rules", TIMED),
    ("fingerprints.save_db", TIMED),
    ("fingerprints.load_db", TIMED),
    ("fingerprints.itemset_count_tables", TIMED),
    ("fingerprints.merge_count_tables", TIMED),
    ("fingerprints.mine_from_counts", TIMED),
    ("rca.diagnose", TIMED),
    ("rca.symptom_sets_for_events", TIMED),
    ("fogsim.simulate.CENTRALIZED", ("s", "self_s")),
    ("fogsim.simulate.EDGE_INFERENCE", ("s", "self_s")),
    ("fogsim.simulate.FOG", ("s", "self_s")),
    ("synth.generate_series", TIMED),
    ("synth.generate", TIMED),
    ("synth.evaluate", TIMED),
    ("cli.train", ("s", "self_s")),
    ("cli.detect", ("s", "self_s")),
    ("cli.mine", ("s", "self_s")),
    ("cli.diagnose", ("s", "self_s")),
    ("cli.eval", ("s", "self_s")),
]
# counter name -> (unit, better)
COUNTERS: dict[str, tuple[str, str]] = {
    "ingest.rows_parsed": ("count", "lower"),
    "cleaning.points_removed": ("count", "lower"),
    "baseline.keys_fit": ("count", "lower"),
    "baseline.windows_scored": ("count", "lower"),
    "baseline.windows_flagged": ("count", "lower"),
    "baseline.model_bytes": ("bytes", "lower"),
    "postfilter.events": ("count", "lower"),
    "postfilter.events_per_flag": ("ratio", "lower"),
    "fingerprints.transactions": ("count", "lower"),
    "fingerprints.empty_transactions": ("count", "lower"),
    "fingerprints.rules": ("count", "lower"),
    "fingerprints.itemsets_counted": ("count", "lower"),
    "rca.rules_scanned": ("count", "lower"),
    "rca.matched_frac": ("ratio", "higher"),
    "fogsim.total_bytes.CENTRALIZED": ("bytes", "lower"),
    "fogsim.total_bytes.EDGE_INFERENCE": ("bytes", "lower"),
    "fogsim.total_bytes.FOG": ("bytes", "lower"),
    "synth.cdr_records": ("count", "lower"),
}
# closed-loop latency of single rca.diagnose calls, from their spans
LATENCY: dict[str, tuple[str, str]] = {
    "rca.diagnose.p50_ms": ("ms", "lower"),
    "rca.diagnose.p99_ms": ("ms", "lower"),
}
OVERHEAD: dict[str, tuple[str, str]] = {
    "trace.job_s": ("s", "lower"),
    "trace.untraced_job_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    units = {}
    for name, fields in SPANS:
        for f in fields:
            units[f"{name}.{f}"] = ("count", "lower") if f == "calls" else ("s", "lower")
    units.update(COUNTERS)
    units.update(LATENCY)
    units.update(OVERHEAD)
    return units


def span_metrics(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Flatten a summarize() result to metric values; absent layers read 0."""
    out = {}
    for name, fields in SPANS:
        entry = summary.get(name, {})
        for f in fields:
            out[f"{name}.{f}"] = entry.get(f, 0)
    return out


def counter_metrics(counters: Counter, diagnose_calls: int) -> dict[str, float]:
    """Counter values with the two ratios derived; absent counters read 0."""
    flagged = counters["baseline.windows_flagged"]
    derived = {
        "postfilter.events_per_flag": counters["postfilter.events"] / flagged if flagged else 0.0,
        "rca.matched_frac": counters["rca.matched"] / diagnose_calls if diagnose_calls else 0.0,
    }
    return {name: derived.get(name, counters[name]) for name in COUNTERS}


def diagnose_latency_metrics(spans: list[Span]) -> dict[str, float]:
    """p50 and p99 of rca.diagnose spans; a percentile without ten samples beyond it reads 0."""
    latencies = [(sp.end - sp.start) * 1e3 for sp in spans if sp.name == "rca.diagnose"]
    tail = stats.tail_percentile(len(latencies)) or 0
    return {
        "rca.diagnose.p50_ms": stats.percentile(latencies, 50) if tail >= 50 else 0.0,
        "rca.diagnose.p99_ms": stats.percentile(latencies, 99) if tail >= 99 else 0.0,
    }
