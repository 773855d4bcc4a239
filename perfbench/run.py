"""Run one cellwatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline_stock --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``.
The workload's inputs are built by separate set-up processes (timed, imports
included), then one worker process repeats the job for ``--seconds`` and
checks its outputs. Set-up and job times are scaled to a reference machine
speed (``probe.py``). ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports its per-layer metrics and writes the
recorded spans to ``.perfbench/trace-<workload>-seed<seed>.json``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import probe  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("pipeline_stock", "fog_compare", "rules_fleet")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
JOB_GRACE_S = 150


class WorkerFailed(Exception):
    pass


def _worker(mode: str, args: argparse.Namespace, work: Path, *extra: str, timeout: float) -> None:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), *extra]
    if args.tiny:
        cmd.append("--tiny")
    # The worker's own output goes to stderr so that stdout ends with the
    # result. A blocking wait plus a kill timer, because Popen.wait(timeout)
    # polls in steps of up to 50 ms, which would quantize setup_s.
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if code != 0:
        raise WorkerFailed(f"worker.py {mode} exited with {code} (killed after {timeout:.0f} s if negative)")


def measure(args: argparse.Namespace) -> tuple[list[float], dict]:
    """Run the set-ups and the job; returns (set-up seconds, worker result)."""
    out_root = ROOT / ".perfbench"
    work = out_root / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        speed = probe.Probe()
        for _ in range(1 if args.trace else SETUP_REPEATS):
            before = speed.sample()
            t0 = time.perf_counter()
            _worker("setup", args, work, timeout=SETUP_TIMEOUT_S)
            seconds = time.perf_counter() - t0
            setup_s.append(probe.scaled(seconds, before, speed.sample()))
        result_path = work / "result.json"
        extra = ["--seconds", str(args.seconds), "--result", str(result_path)]
        if args.trace:
            extra.append("--trace")
        _worker("job", args, work, *extra, timeout=args.seconds + JOB_GRACE_S)
        doc = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace and "spans" in doc:
        spans_path = out_root / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(doc.pop("spans")), encoding="utf-8")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    return setup_s, doc


def _fmt(values: list[float]) -> str:
    return f"{len(values)}: " + ", ".join(f"{v:.4g}" for v in values)


def end_to_end(setup_s: list[float], doc: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_s),
        "job_s": stats.job_seconds(doc["job_steps"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs of the same shape (tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cellwatch" / "__init__.py").is_file():
        print(f"error: no cellwatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        setup_s, doc = measure(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = doc["attempted"], doc["failed"]
    print(f"workload {args.workload} seed {args.seed}")
    if doc["error"]:
        print(f"error: {doc['error']}")
    for name, ok in doc["checks"]:
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, digest in doc["digests"].items():
        print(f"digest {name} sha256={digest}")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ratio ({failed} of {attempted} operations)")

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    if doc["error"]:
        values = {}
    elif args.trace:
        values = doc["per_layer"]
        print(f"job_s {statistics.median(doc['job_s']):.6g} s untraced, "
              f"{values['trace.job_s']:.6g} s traced, overhead {values['trace.overhead_s']:.6g} s")
    else:
        values = end_to_end(setup_s, doc)
        print(f"times below are at the reference speed: probe {probe.PROBE_REFERENCE_S * 1e3:g} ms; "
              f"the job's probe samples had median {statistics.median(doc['probe_s']) * 1e3:.4g} ms")
        print(f"setup_s: median of {_fmt(setup_s)}")
        print(f"job_s: sum over steps of the median of {len(doc['job_s'])} repetitions "
              f"(wall times of the repetitions: {_fmt(doc['job_s'])})")
        for step, durations in doc["job_steps"].items():
            print(f"  step {step}: median {statistics.median(durations):.4g} s of {_fmt(durations)}")
        latency = doc.get("diagnose_ms")
        if latency:
            print(f"diagnose_p50_ms {latency['p50']:.6g} ms, diagnose_p99_ms {latency['p99']:.6g} ms"
                  f" ({latency['n']} closed-loop rca.diagnose calls; not gated)")
    metrics = {}
    for spec in specs:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
            if not args.trace or not spec["name"].endswith(".calls"):
                print(f"{spec['name']} {values[spec['name']]:.6g} {spec['unit']}")
    correct = failed == 0 and not doc["error"] and len(metrics) == len(specs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
