#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
prints, for each end-to-end metric, its median and its spread (inter-quartile
distance over the median) beside the bound BENCHMARK.json allows.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [workload ...]

Run from the repository root; runs are sequential, so they do not disturb
each other's timings.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for wl in workloads:
        values, failed = {}, 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failed += 0 if result["correct"] else 1
            for name, v in result["metrics"].items():
                values.setdefault(name, []).append(v["value"])
        print(f"{wl}: {args.runs} runs, {failed} not correct")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            s = metrics.spread(v)
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"  {m['name']:<22s} median {statistics.median(v):12.6g} "
                  f"spread {s:6.3f}  bound {m['bound']:.2f}  spread/bound {s / m['bound']:5.2f}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
