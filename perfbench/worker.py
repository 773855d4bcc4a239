"""Benchmark worker process, started by run.py.

``worker.py setup`` builds one workload's inputs (run.py times the whole
process, imports included). ``worker.py job`` repeats the workload's job
for the measuring time, then checks the outputs and writes a result JSON.
With ``--trace`` it alternates untraced and traced repetitions and writes
the spans of the traced ones when it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Ops, StepFailed  # noqa: E402

MIN_REPS = 3
# the part of an untraced repetition outside the job's top-level spans
OTHER_STEP = "other"


def _step_timer(speed: probe.Probe, raw: dict[str, float], scaled: dict[str, float]):
    """A span() for untraced repetitions: times each named step between two
    probe samples and adds its wall time to ``raw`` and its time at the
    reference speed to ``scaled``."""

    @contextmanager
    def span(name: str):
        before = speed.sample()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - t0
            after = speed.sample()
            raw[name] = raw.get(name, 0.0) + seconds
            scaled[name] = scaled.get(name, 0.0) + probe.scaled(seconds, before, after)

    return span


def _digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(artifacts.items())}


def _median_summaries(summaries: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}


def run_job(name: str, seed: int, seconds: float, traced: bool, tiny: bool, work: Path) -> dict:
    wl = WORKLOADS[name]
    inputs = wl.load(seed, tiny, work)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    ops = Ops()
    times: dict[bool, list[float]] = {False: [], True: []}
    steps: dict[str, list[float]] = {}
    speed = probe.Probe()
    latencies: list[float] = []
    rep_digests: list[dict[str, str]] = []
    layer_values: list[dict[str, float]] = []
    setup_spans: list[tracing.Span] = []
    setup_counters: Counter = Counter()
    spans_out: list[list[dict]] = []
    error = None
    result = None

    if traced:
        # one traced set-up in this process gives the set-up layers' spans
        tracing.install(tracer)
        try:
            wl.setup(seed, tiny, work)
        finally:
            tracer.restore()
        setup_spans, setup_counters = tracer.take()
    setup_summary = tracing.summarize(setup_spans)
    # untraced runs repeat the job; traced runs alternate untraced and traced
    plan = [False, True] if traced else [False]
    started = time.perf_counter()
    try:
        while True:
            for with_trace in plan:
                if with_trace:
                    tracing.install(tracer)
                raw_steps: dict[str, float] = {}
                rep_steps: dict[str, float] = {}
                span = tracer.span if with_trace else _step_timer(speed, raw_steps, rep_steps)
                try:
                    result = None  # free the previous repetition's result outside the timing
                    first = None if with_trace else speed.sample()
                    probing = speed.spent
                    t0 = time.perf_counter()
                    result = wl.job(inputs, out, ops, span)
                    elapsed_rep = time.perf_counter() - t0 - (speed.spent - probing)
                    last = None if with_trace else speed.sample()
                    times[with_trace].append(elapsed_rep)
                finally:
                    tracer.restore()
                rep_digests.append(_digests(wl.artifacts(result)))
                if with_trace:
                    spans, counters = tracer.take()
                    counters.update(setup_counters)
                    counters.update(wl.counters(result))
                    summary = tracing.merge_summaries(setup_summary, tracing.summarize(spans))
                    calls = summary.get("rca.diagnose", {}).get("calls", 0)
                    layer_values.append({
                        **tracing.span_metrics(summary),
                        **tracing.counter_metrics(counters, calls),
                        **tracing.diagnose_latency_metrics(spans),
                    })
                    spans_out.append([vars(sp) for sp in spans])
                else:
                    rep_steps[OTHER_STEP] = probe.scaled(elapsed_rep - sum(raw_steps.values()), first, last)
                    for step, seconds_taken in rep_steps.items():
                        steps.setdefault(step, []).append(seconds_taken)
                    if not traced:
                        latencies.extend(wl.latencies_ms(result))
            elapsed = time.perf_counter() - started
            per_round = elapsed / len(times[False])
            # stop when another round would end more than half of it past --seconds
            if len(times[False]) >= (1 if traced else MIN_REPS) and elapsed + per_round / 2 > seconds:
                break
    except StepFailed as exc:
        error = str(exc)
    except Exception as exc:  # a job that raises counts as one failed operation
        ops.attempted += 1
        ops.failed += 1
        error = f"{type(exc).__name__}: {exc}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks: list[tuple[str, bool]] = []
    if error is None:
        checks = wl.checks(inputs, result)
        checks.append(("artifacts_identical_across_reps", all(d == rep_digests[0] for d in rep_digests)))
        if latencies:
            checks.append(("diagnose_samples_allow_p99", (stats.tail_percentile(len(latencies)) or 0) >= 99))
        if traced:
            counter_names = tracing.COUNTERS
            checks.append((
                "counters_identical_across_traced_reps",
                all({k: v[k] for k in counter_names} == {k: layer_values[0][k] for k in counter_names}
                    for v in layer_values),
            ))
    for _, ok in checks:
        ops.attempted += 1
        ops.failed += 0 if ok else 1

    doc = {
        "workload": name,
        "seed": seed,
        "error": error,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "checks": checks,
        "digests": rep_digests[0] if rep_digests else {},
        "job_s": times[False],
        "job_steps": steps,
        "probe_s": speed.samples,
        "peak_rss_mb": peak_rss_mb,
    }
    if latencies:
        doc["diagnose_ms"] = {
            "n": len(latencies),
            "p50": stats.percentile(latencies, 50),
            "p99": stats.percentile(latencies, 99),
        }
    if traced and layer_values:
        layers = _median_summaries(layer_values)
        traced_s = statistics.median(times[True])
        untraced_s = statistics.median(times[False])
        layers.update({
            "trace.job_s": traced_s,
            "trace.untraced_job_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
        })
        doc["per_layer"] = layers
        doc["spans"] = {"setup": [vars(sp) for sp in setup_spans], "reps": spans_out}
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "job"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        WORKLOADS[args.workload].setup(args.seed, args.tiny, args.work)
        return 0
    doc = run_job(args.workload, args.seed, args.seconds, args.trace, args.tiny, args.work)
    args.result.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
