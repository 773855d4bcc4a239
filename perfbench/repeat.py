"""Repeat one workload over consecutive seeds and report run-to-run spread.

    python3 perfbench/repeat.py --workload rules_fleet --runs 10 --first-seed 1

For each end-to-end metric it prints the median, the quartiles of the runs
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json. The medians are saved
to ``.perfbench/repeat-<workload>-<tag>.json``; ``--compare`` names an earlier
file and reports whether any median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import stats  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--tag", default="latest")
    parser.add_argument("--compare", type=Path, help="an earlier repeat-*.json to compare medians with")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    incorrect = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        if not result.get("correct"):
            incorrect += 1
        for name, metric in result.get("metrics", {}).items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.4g}" for n, m in result.get("metrics", {}).items()),
              flush=True)

    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    medians = {}
    worse = False
    for spec in bench["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        vals = values[name]
        if len(vals) < 2:
            print(f"{name}: too few values")
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        medians[name] = median
        line = (f"{name}: median {median:.5g} {spec['unit']}  q1 {q1:.5g}  q3 {q3:.5g}"
                f"  spread {stats.spread(vals):.3f} (bound {bound}, a third is {bound / 3:.3f})")
        if name in earlier:
            change = (median - earlier[name]) / earlier[name]
            if spec["better"] == "higher":
                change = -change
            line += f"  worse by {change:+.3f} than the earlier set"
            worse |= change > bound
        print(line)
    out = ROOT / ".perfbench" / f"repeat-{args.workload}-{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(medians, indent=2) + "\n", encoding="utf-8")
    print(f"{incorrect} of {args.runs} runs incorrect; medians saved to {out.relative_to(ROOT)}")
    return 1 if incorrect or worse else 0


if __name__ == "__main__":
    sys.exit(main())
