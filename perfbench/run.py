#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:
    python3 perfbench/run.py --workload flow_fig1 --seed 1 --seconds 40 --trace 0

builds perfbench/ (and the bridge sources it compiles) into $CARGO_TARGET_DIR
or .bench_build, runs one workload, and passes the executable's output through:
its last line is the JSON result.

Steadiness report:
    python3 perfbench/run.py --report [--workloads a,b] [--seeds 1-10]
                             [--sets 2] [--seconds 40]

runs every (set, workload, seed), then prints for each end-to-end metric the
median and quartiles per set, flags every spread (IQR / median) above the
metric's bound in BENCHMARK.json, and flags any set median worse than the
first set's by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once, then build incrementally. Returns the executable."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    exe = out / "perfbench"
    if not exe.exists():
        sys.exit("perfbench: build produced no executable")
    return exe


def run_once(exe, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (stdout lines, parsed final JSON)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(build_dir() / "out"), "--libs", str(ROOT / "libs"),
           "--digests", str(ROOT / "perfbench" / "digests.txt")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.stderr.write(res.stderr)
    if echo:
        sys.stdout.write(res.stdout)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with exit code %d" % res.returncode)
    return lines, json.loads(lines[-1])


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    gated = {w["name"] for w in bench["workloads"]}
    exe = build()
    results = {}  # (set, workload) -> list of (seed, result, inputs digest)
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                lines, res = run_once(exe, w, seed, seconds, 0, echo=False)
                digest = next((l.split()[-1] for l in lines
                               if l.startswith("# inputs digest")), "")
                results.setdefault((s, w), []).append((seed, res, digest))
                print("set %d %s seed %d: correct=%s attempted=%d failed=%d" %
                      (s, w, seed, res["correct"], res["attempted"], res["failed"]),
                      flush=True)
    (build_dir() / "out").mkdir(parents=True, exist_ok=True)
    raw = {"%d/%s" % k: v for k, v in results.items()}
    (build_dir() / "out" / "report.json").write_text(json.dumps(raw, indent=1))

    flagged = 0
    print("\n%-12s %-16s %4s %12s %12s %12s %7s %6s  %s" %
          ("workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "flag"))
    for w in workloads:
        # The gated metrics with their bounds; a hand-run workload outside
        # BENCHMARK.json reports its own metrics, with no bound.
        names = list(results[(0, w)][0][1]["metrics"])
        if w in gated and set(metrics) - set(names):
            print("%s: GATED METRICS MISSING %s" % (w, sorted(set(metrics) - set(names))))
            flagged += 1
        for name in names:
            m = metrics.get(name)
            first_median = None
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for _, r, _ in results[(s, w)]]
                q1, q2, q3, sp = spread(vals)
                flags = []  # upper case: outside a bound; lower case: advisory
                if m and sp > m["bound"]:
                    flags.append("SPREAD>BOUND")
                elif m and sp > m["bound"] / 3:
                    flags.append("spread>bound/3")
                if first_median is None:
                    first_median = q2
                elif m:
                    worse = (q2 - first_median) / first_median if m["better"] == "lower" \
                        else (first_median - q2) / first_median
                    if worse > m["bound"]:
                        flags.append("MEDIAN-WORSE-THAN-SET-0-BY-%.0f%%" % (100 * worse))
                flagged += any(f.isupper() for f in flags)
                print("%-12s %-16s %4d %12.5g %12.5g %12.5g %6.1f%% %6s  %s" %
                      (w, name, s, q1, q2, q3, 100 * sp,
                       "%.0f%%" % (100 * m["bound"]) if m else "-", " ".join(flags)))
        for seed in seeds:
            digests = {d for s in range(args.sets)
                       for sd, _, d in results[(s, w)] if sd == seed}
            if len(digests) != 1:
                print("%s seed %d: INPUTS DIFFER ACROSS RUNS %s" % (w, seed, sorted(digests)))
                flagged += 1
        bad = [(s, sd) for s in range(args.sets) for sd, r, _ in results[(s, w)]
               if not r["correct"] or r["failed"]]
        if bad:
            print("%s: runs with correct=false or failures: %s" % (w, bad))
            flagged += 1
    print("\n%d flagged" % flagged)
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--sets", type=int, default=2)
    args = p.parse_args()
    if not (ROOT / "src").is_dir() or not (ROOT / "libs").is_dir():
        sys.exit("perfbench: no bridge sources next to perfbench/ (src/, libs/)")
    if args.report:
        return report(args)
    if not args.workload or args.seed is None or not args.seconds:
        p.error("--workload, --seed and --seconds are required")
    exe = build()
    run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
