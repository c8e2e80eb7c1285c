#!/usr/bin/env python3
"""The repository benchmark: time-to-result and throughput of FedProphet /
jFAT training, loopback-distributed rounds and int8 serving.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds perfbench/ (the library sources plus
the workload program in bench.cpp) under .bench_build/perfbench, runs one workload,
checks its outputs, and prints every metric named in BENCHMARK.json with its
unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones, from a separate
traced run. The full report, stamped with the host and source tree, is kept
under .bench_build/perfbench/results/.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
# On a shared VM the hypervisor sometimes takes several % of this machine's
# CPU for minutes at a time, which slows every figure by 10-50%. An untraced
# measurement during which it took more than MAX_STEAL_FRAC is made again
# (at most MAX_ATTEMPTS times, while time allows) and the attempt with the
# least steal is reported; every attempt's steal share is printed.
MAX_STEAL_FRAC = 0.01
MAX_ATTEMPTS = 3
ATTEMPTS_WITHIN_S = 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; the compiler's output goes
    to stderr so standard output stays the report."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def steal_s():
    """CPU seconds the hypervisor has taken from this machine (0 when the
    kernel does not report it)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def stamp(seed, raw, steal_frac, steals):
    """Provenance of a result; recorded, never gated."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "n/a (not a git checkout)"
    digest, lines = hashlib.sha256(), 0
    for p in sorted((ROOT / "src").rglob("*")):
        if p.suffix in (".cpp", ".hpp"):
            data = p.read_bytes()
            digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + data)
            lines += data.count(b"\n")
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "fp_num_threads": os.environ.get("FP_NUM_THREADS", "unset"),
        "threads_used": raw["threads"],
        "build_type": "Release",
        "seed": seed,
        "host_steal_frac": round(steal_frac, 4),
        "attempt_steal_fracs": [round(x, 4) for x in steals],
    }


def atom_table(raw):
    rows = ["atom  name            macs/sample   fwd ms   bwd ms  GFLOP/s  int8w ms"]
    for i, a in enumerate(raw["trace"]["probes"]["atoms"]):
        fwd = metrics.median(a["fwd_ms"])
        rows.append(f"{i:4d}  {a['name']:<14s}{a['macs_per_sample']:12d} {fwd:8.3f} "
                    f"{metrics.median(a['bwd_ms']):8.3f} "
                    f"{2 * a['macs_per_sample'] * a['batch'] / (fwd * 1e6):8.2f} "
                    f"{metrics.median(a['infer_ms']):9.3f}")
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    rundir = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir.mkdir(parents=True, exist_ok=True)
    out = rundir / "raw.json"
    out.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    start, steals, raws = time.monotonic(), [], []
    while True:
        steal0, t0 = steal_s(), time.monotonic()
        subprocess.run(cmd, cwd=rundir, check=True, stdout=sys.stderr,
                       timeout=RUN_TIMEOUT_S - (t0 - start))
        took = time.monotonic() - t0
        steals.append((steal_s() - steal0) / (took * (os.cpu_count() or 1)))
        raws.append(json.loads(out.read_text()))
        if (args.trace or steals[-1] <= MAX_STEAL_FRAC or len(steals) == MAX_ATTEMPTS
                or time.monotonic() - start + took > ATTEMPTS_WITHIN_S):
            break
        log(f"perfbench: host steal {steals[-1]:.1%} during the run; measuring again")
    # Figures come from the least disturbed attempt; failures and failed
    # checks from every attempt.
    steal_frac = min(steals)
    raw = raws[steals.index(steal_frac)]
    checks = [c for r in raws for c in r["checks"]]
    attempted, failed = (sum(x) for x in zip(*map(metrics.operations, raws)))

    notes = {}
    if args.trace:
        atoms = sum(1 for m in declared if m["name"].endswith(".fwd_ms"))
        values = metrics.per_layer(raw, atoms)
    else:
        values, notes = metrics.end_to_end(raw)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for {', '.join(missing)}")
    correct = (failed == 0 and not checks
               and all(math.isfinite(values[m["name"]]) for m in declared))

    report = {"workload": args.workload, "trace": args.trace,
              "stamp": stamp(args.seed, raw, steal_frac, steals),
              "checks": checks, "attempted": attempted, "failed": failed,
              "notes": notes,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("stamp: " + " ".join(f"{k}={v}" for k, v in report["stamp"].items()))
    for check in checks:
        print(f"check failed: {check}")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6g})")
    for m in declared:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:<28s} {values[m['name']]:>14.6g} {m['unit']}{note}")
    for name, note in notes.items():
        if name not in values:
            print(f"  {name:<28s} not gated: {note}")
    if args.trace:
        tr = raw["trace"]
        print(f"trace: {tr['path']} ({tr['dropped_events']:g} events dropped)")
        print("\n".join(atom_table(raw)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError, StopIteration) as e:
        log(f"perfbench: {e!r}")
        sys.exit(1)
