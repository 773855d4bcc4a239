"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

WORKLOADS = ("pipeline_stock", "fog_compare", "rules_fleet")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(999) == 90
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(3000) == 99
    assert stats.tail_percentile(9999) == 99
    assert stats.tail_percentile(10000) == 99.9
    for n in (20, 137, 1000, 3000, 10000):
        p = stats.tail_percentile(n)
        assert n - stats.rank(n, p) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 99) == 99.0
    assert stats.percentile([3.0], 99) == 3.0


def test_job_seconds_sums_the_median_of_each_step():
    steps = {"a": [1.0, 9.0, 2.0], "b": [5.0, 4.0, 30.0], "other": [0.1, 0.1, 0.3]}
    assert stats.job_seconds(steps) == pytest.approx(2.0 + 5.0 + 0.1)


def test_probe_scales_to_the_reference_speed():
    ref = probe.PROBE_REFERENCE_S
    assert probe.scaled(4.0, ref, ref) == pytest.approx(4.0)
    assert probe.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)  # a host twice as slow
    assert probe.scaled(3.0, ref, 2 * ref) == pytest.approx(2.0)
    speed = probe.Probe()
    first = speed.sample()
    assert speed.sample() == first and speed.samples == [first]  # reused right away
    assert first > 0 and speed.spent >= probe.PROBE_SECONDS


def test_self_time_subtracts_child_spans():
    spans = [
        Span("a", 0.0, 10.0, None),
        Span("b", 1.0, 4.0, 0),
        Span("d", 2.0, 3.0, 1),
        Span("c", 5.0, 7.0, 0),
        Span("b", 8.0, 9.0, 0),
        Span("a", 8.2, 8.7, 4),  # a nested inside itself
    ]
    summary = tracing.summarize(spans)
    assert summary["a"]["self_s"] == pytest.approx((10 - 3 - 2 - 1) + 0.5)
    assert summary["a"]["s"] == pytest.approx(10.0)  # the nested a is inside the outer one
    assert summary["a"]["calls"] == 2
    assert summary["b"]["self_s"] == pytest.approx(2.0 + 0.5)
    assert summary["b"]["s"] == pytest.approx(4.0)
    assert summary["d"] == {"s": pytest.approx(1.0), "self_s": pytest.approx(1.0), "calls": 1}


def test_tracer_records_parents_and_restores_wrapped_functions():
    from cellwatch import rca

    original = rca.jaccard_distance
    tracer = tracing.Tracer()
    tracer.wrap("cellwatch.rca.jaccard_distance", "rca.jaccard", lambda r, a, k: {"calls": 1})
    with tracer.span("outer"):
        rca.jaccard_distance(frozenset(), frozenset())
    tracer.restore()
    assert rca.jaccard_distance is original
    spans, counters = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [("outer", None), ("rca.jaccard", 0)]
    assert counters == {"calls": 1}
    assert tracer.spans == []


def test_benchmark_json_lists_every_metric_the_benchmark_emits():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.metric_units())
    emitted = run.end_to_end([1.0], {"job_steps": {"other": [1.0]}, "peak_rss_mb": 1.0})
    assert [m["name"] for m in bench["end_to_end"]] == list(emitted)
    assert set(bench["workloads"][i]["name"] for i in range(3)) == set(WORKLOADS)


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict[str, str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    digests = dict(
        line.split()[1:3] for line in lines if line.startswith("digest ")
    )
    return json.loads(lines[-1]), digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks(workload):
    result, digests = _run(workload, seed=1, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_traced_twice_repeats_counters_and_digests(workload):
    first, first_digests = _run(workload, seed=7, trace=1)
    second, second_digests = _run(workload, seed=7, trace=1)
    assert first["correct"] and second["correct"]
    counters = [name for name in tracing.COUNTERS] + [
        name for name in first["metrics"] if name.endswith(".calls")
    ]
    assert {n: first["metrics"][n]["value"] for n in counters} == {
        n: second["metrics"][n]["value"] for n in counters
    }
    assert first_digests == second_digests
