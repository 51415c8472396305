#!/usr/bin/env python3
"""Diff a fresh BENCH_synthesis.json against the committed baseline.

Fails (exit 1) when the sweep headline regressed by more than the allowed
slowdown. The headline metrics are *ratios measured within one run on one
machine* — `speedup` (reference evaluator wall / compiled evaluator wall)
for the dense-sweep workloads — because absolute milliseconds are not
comparable between the machine that committed the baseline and the CI
runner, while the compiled-vs-reference ratio is: both evaluators run the
same workload in the same process minutes apart. The library evaluates
only through the compiled, pruned odometer; the reference functional
evaluator the benches compare against is the test oracle in
tests/eval_reference.h. Every entry that reports `combinations_reference`
must show the reference enumerating exactly the combinations the compiled
arm evaluated or pruned, so `speedup` keeps comparing the same search.

Thread-scaling entries (suite_t*) are reported but never gate: their
speedup is bounded by the runner's core count, which the baseline machine
does not share.

Usage:
  check_bench_regression.py FRESH BASELINE [--max-slowdown 0.25]
"""

import argparse
import json
import sys

# Workload entries whose `speedup` ratio gates the build. The first is the
# README headline (the 180k-combination sweep).
GATED = [
    "sec6_runtime/datapath16_sweep",
    "sec6_runtime/datapath16_sweep1m",
    "sec6_runtime/total",
]

# Entries gated on an absolute within-run speedup floor instead of a ratio
# against the committed baseline. The expansion- and extraction-phase
# headlines in bench_fig3_alu64 (warm template cache vs the template-cache-
# off path; warm extraction cache vs the cold-cache extraction of a fresh
# Synthesizer) measure sub-millisecond cached phases, so
# their ratios are too noisy to diff against a number measured on another
# machine — but each must never fall back under the 3x bar its cache was
# landed against.
ABS_FLOOR_GATED = {
    "fig3_alu64/expand_phase": 3.0,
    "fig3_alu64/extract_phase": 3.0,
}

# The 8-thread entries of the sweep workloads gate parallel health (see
# check_parallel_health): the sharded odometer must actually engage, and
# on multi-core runners its speedup must clear a core-count-aware floor.
PARALLEL_GATED = [
    "sec6_runtime/datapath16_sweep/t8",
    "sec6_runtime/datapath16_sweep1m/t8",
]

# Warm-retarget floors (bench_retarget_libraries): one Synthesizer swung
# across the three registry libraries, revisits served by the
# content-fingerprint-keyed caches. Cold and warm are measured minutes
# apart in the same process, so the ratio is machine-independent and the
# floor absolute: a revisit that fails to come back >= 2x faster than the
# cold visit means the delta-aware keys stopped carrying state across
# retarget. fronts_identical == 1 is non-negotiable — warm reuse may
# never change an answer.
RETARGET_GATED = {
    "retarget_warm/LSI_LGC15": 2.0,
    "retarget_warm/TTL74": 2.0,
    "retarget_warm/sample_sky130_subset": 2.0,
}

# Node-parallel evaluation (fig3_alu64/node_parallel): antichain fan-out
# across independent SpecNodes. Engagement (the fan-out really ran) and
# front identity across thread counts gate unconditionally — both are
# machine-independent. The scaling floor applies only on runners with
# >= 4 cores: the dense-sweep evaluate phase at 8 threads must beat 1
# thread (>= 1.05x) — a modest bar, because the phase is sub-millisecond
# and fork-join overhead is real, but one a serial fallback or a hot
# lock cannot clear. On 1-2 core runners (like the container that wrote
# the committed baseline) the speedup is reported, not gated.
NODE_PARALLEL_ENTRY = "fig3_alu64/node_parallel"
NODE_PARALLEL_SCALING_FLOOR = 1.05

# Cache-effectiveness floors: absolute, within-run, machine-independent.
# Hit rates and prune ratios are structural properties of the search (how
# often the warm caches answer, how much of the odometer the front
# prunes), so a change that quietly disables a cache or the
# bound-and-prune front fails here even when wall time happens to look
# fine on the runner. Fields beyond these (raw counts, extra counters)
# are informational and never gate — new fields in entries are always
# tolerated.
EFFECTIVENESS_GATED = {
    "fig3_alu64/cache_effect": {
        # The fig3 bench measures these on deliberately warm caches; both
        # rates are 1.0 when the caches work at all.
        "template_warm_hit_rate": 0.90,
        "extract_warm_hit_rate": 0.90,
    },
    "fig3_alu64/budgeted_cache": {
        # Extraction cache squeezed to ~99% of its own resident set: the
        # budget must be doing real work (>= 1 eviction) while the warm
        # pass still answers >= 90% of lookups from cache. A cache that
        # thrashes under a near-sized budget, or a budget that silently
        # stops evicting, both fail here.
        "warm_hit_rate": 0.90,
        "evictions": 1,
    },
}


# Lint-phase ceiling (fig3_alu64/lint_phase): the structural linter runs
# over every extracted design when verification is on, so its cost is held
# to a within-run ceiling — at most this percentage of the extract phase
# it rides on. The entry must also report a clean front (0 diagnostics)
# and byte-identical fronts/VHDL with the verify gate on vs off.
LINT_ENTRY = "fig3_alu64/lint_phase"
LINT_MAX_PCT_OF_EXTRACT = 5.0

# Co-simulation budget (bench_fig1_pipeline -> fig1/cosim): hls::run_fsmd
# on gcd(84, 36), simulator build included, in microseconds per simulated
# cycle. An absolute latency ceiling (like fig1/ctrl below): the compiled
# simulator measured 2.0-3.6 us/cycle on a 4-core x86 container, Release build (the
# interpretive simulator it replaced took 33-49 us/cycle on the same
# machine), so the ceiling leaves ~4x headroom for a slower runner and
# still fails a fall back to the per-bit path. The co-simulated gcd must
# also be right (outputs_match == 1).
COSIM_ENTRY = "fig1/cosim"
COSIM_MAX_US_PER_CYCLE = 15.0

# Control-compiler budget (bench_fig1_pipeline -> fig1/ctrl): microseconds
# per ctrl::compile_control on the gcd's state table and on a seeded
# 8-variable table. The hashed, linear-per-cube Quine-McCluskey measured
# 61-104 us (gcd) and 1.6-2.2 ms (seeded) on a 4-core x86 container,
# Release build; the all-pairs minimizer it replaced took 170-330 us and
# 31-40 ms on the same machine. The ceilings leave ~4x headroom over the
# median, and the seeded one still fails a fall back to the all-pairs
# merge. Both controllers must also report a nonzero implicant_count.
CTRL_ENTRY = "fig1/ctrl"
CTRL_MAX_US = {
    "gcd_us": 400.0,
    "seeded_us": 8000.0,
}

# Branch-and-bound odometer budget (bench_sec6_runtime ->
# sec6_runtime/datapath16_sweep1m): the serial (threads = 1) compiled arm's
# wall time in milliseconds on the one-million-combination sweep. An
# absolute ceiling like fig1/cosim: the block-skipping odometer measured
# 12-20 ms on a shared 4-core x86 container, Release build, where testing
# every combination on its own took 70-140 ms on the same kind of
# machine, so the ceiling leaves ~3-5x headroom for a slower runner and
# still fails a fall back to per-combination testing.
ODOMETER_ENTRY = "sec6_runtime/datapath16_sweep1m"
ODOMETER_MAX_WALL_MS = 60.0

# Server-throughput floors (bench_server_throughput -> BENCH_server.json,
# checked via --server). Absolute and within-run, like the cache floors:
# `warm_cold_speedup` compares warm sessions against one-shot cold
# synthesis measured seconds apart in the same process, so a server that
# stops sharing warm caches fails the 2x bar on any machine. The
# `warm_rps` floor is a liveness sanity bound (a warm fig3 request is
# sub-millisecond; 50 req/s means the server is grossly wedged), kept far
# below real throughput so runner speed never trips it.
SERVER_GATED = {
    "warm_cold_speedup": 2.0,
    "warm_rps": 50.0,
}


def load_entries(path):
    with open(path) as f:
        doc = json.load(f)
    return {e["name"]: e for e in doc.get("entries", [])}


def check_reference_enumeration(fresh, failures):
    """The reference arm must enumerate exactly what the compiled arm
    attempted: combinations_reference == combinations_evaluated +
    combinations_pruned on every entry that reports the first."""
    for name, e in sorted(fresh.items()):
        ref = e.get("combinations_reference")
        if ref is None:
            continue
        attempted = (e.get("combinations_evaluated", 0) +
                     e.get("combinations_pruned", 0))
        if ref != attempted:
            failures.append(
                f"{name}: reference enumerated {ref:.0f} combinations, the "
                f"compiled arm evaluated + pruned {attempted:.0f} — the "
                "speedup no longer compares the same search")


def check_parallel_health(fresh, failures):
    """Guard the parallel evaluator against silently regressing to serial.

    Thread-scaling *ratios* cannot be compared against the committed
    baseline (it may have been measured on a different core count — the
    shipped one comes from a 1-core container), so this gate is absolute
    and within-run instead:

    - the sweep workloads' 8-thread runs must have sharded at least one
      odometer (machine-independent: sharding depends only on combination
      counts, not on cores), and
    - on runners with >= 4 cores, the most odometer-bound workload must
      show real scaling: speedup_vs_1thread >= 0.35 x min(8, cores). That
      is ~1.4x at 4 cores and ~2.8x at 8 — far below ideal scaling, far
      above a hot-path lock or a serial fallback. On 1-2 cores only a
      no-severe-slowdown floor (0.7x) applies.
    """
    suite = fresh.get("sec6_runtime/suite_t8", {})
    cores = int(suite.get("hardware_concurrency", 0))
    for name in PARALLEL_GATED:
        e = fresh.get(name)
        if e is None:
            failures.append(f"{name}: parallel-gated entry missing")
            continue
        if e.get("parallel_odometers", 0) < 1:
            failures.append(
                f"{name}: the sharded odometer never engaged "
                "(parallel_odometers = 0) — sweep fell back to serial")
        speedup = e.get("speedup_vs_1thread", 0.0)
        floor = 0.35 * min(8, cores) if cores >= 4 else 0.7
        if speedup < floor:
            failures.append(
                f"{name}: 8-thread speedup {speedup:.2f}x below the "
                f"{floor:.2f}x floor for {cores} cores")
    if cores >= 4 and suite:
        print(f"suite_t8 speedup on {cores} cores: "
              f"{suite.get('speedup_vs_1thread', 0.0):.2f}x vs 1 thread")


def check_retarget(fresh, failures):
    """Hold the warm-retarget entries to their absolute speedup floor."""
    for name, floor in sorted(RETARGET_GATED.items()):
        e = fresh.get(name)
        if e is None:
            failures.append(f"{name}: retarget-gated entry missing from "
                            "fresh run")
            continue
        speedup = e.get("speedup", 0.0)
        if speedup < floor:
            failures.append(
                f"{name}: warm retarget speedup {speedup:.2f}x below the "
                f"{floor:.1f}x floor — delta-aware cache keys not carrying "
                "state across retarget")
        else:
            print(f"{name}: warm {speedup:.2f}x vs cold "
                  f"(floor {floor:.1f}x) ok")
        if e.get("fronts_identical", 0) != 1:
            failures.append(f"{name}: warm retarget front differs from the "
                            "cold visit")


def check_node_parallel(fresh, failures):
    """Gate the antichain fan-out: engagement and front identity always,
    the scaling floor only where there are cores to scale onto."""
    e = fresh.get(NODE_PARALLEL_ENTRY)
    if e is None:
        failures.append(f"{NODE_PARALLEL_ENTRY}: gated entry missing from "
                        "fresh run")
        return
    if e.get("node_parallel_nodes_t8", 0) < 1:
        failures.append(
            f"{NODE_PARALLEL_ENTRY}: the node-parallel fan-out never "
            "engaged (node_parallel_nodes_t8 = 0) — evaluate fell back "
            "to the serial recursion")
    if e.get("fronts_identical") != "yes":
        failures.append(f"{NODE_PARALLEL_ENTRY}: fronts not byte-identical "
                        "across thread counts")
    cores = int(e.get("hardware_concurrency", 0))
    speedup = e.get("speedup_t8_vs_t1", 0.0)
    if cores >= 4:
        if speedup < NODE_PARALLEL_SCALING_FLOOR:
            failures.append(
                f"{NODE_PARALLEL_ENTRY}: 8-thread evaluate speedup "
                f"{speedup:.2f}x below the "
                f"{NODE_PARALLEL_SCALING_FLOOR:.2f}x floor on {cores} cores")
        else:
            print(f"{NODE_PARALLEL_ENTRY}: evaluate {speedup:.2f}x at 8 "
                  f"threads on {cores} cores ok")
    else:
        print(f"{NODE_PARALLEL_ENTRY}: evaluate {speedup:.2f}x at 8 "
              f"threads ({cores} cores — scaling floor not applied)")


def check_effectiveness(fresh, failures):
    """Hold cache hit rates / prune ratios to their absolute floors."""
    for name, floors in sorted(EFFECTIVENESS_GATED.items()):
        e = fresh.get(name)
        if e is None:
            failures.append(
                f"{name}: effectiveness-gated entry missing from fresh run")
            continue
        for field, floor in sorted(floors.items()):
            v = e.get(field)
            if v is None:
                failures.append(f"{name}: effectiveness field '{field}' "
                                "missing from fresh entry")
            elif v < floor:
                failures.append(f"{name}: {field} = {v:.3f} below the "
                                f"{floor:.2f} floor")
            else:
                print(f"{name}.{field}: {v:.3f} (floor {floor:.2f}) ok")


def check_lint_phase(fresh, failures):
    """Hold the lint phase to its cost ceiling and clean-front contract."""
    e = fresh.get(LINT_ENTRY)
    if e is None:
        failures.append(f"{LINT_ENTRY}: gated entry missing from fresh run")
        return
    pct = e.get("lint_vs_extract_pct")
    if pct is None:
        failures.append(f"{LINT_ENTRY}: lint_vs_extract_pct missing")
    elif pct > LINT_MAX_PCT_OF_EXTRACT:
        failures.append(
            f"{LINT_ENTRY}: lint cost {pct:.1f}% of the extract phase "
            f"exceeds the {LINT_MAX_PCT_OF_EXTRACT:.0f}% ceiling")
    else:
        print(f"{LINT_ENTRY}: lint {pct:.1f}% of extract "
              f"(ceiling {LINT_MAX_PCT_OF_EXTRACT:.0f}%) ok")
    if e.get("diagnostics", 0) != 0:
        failures.append(f"{LINT_ENTRY}: {e.get('diagnostics')} lint "
                        "diagnostics on the fig3 front (expected a clean "
                        "front)")
    if e.get("fronts_identical") != "yes":
        failures.append(f"{LINT_ENTRY}: front not byte-identical with "
                        "verify_designs on vs off")


def check_cosim(fresh, failures):
    """Hold the co-simulation layer to its absolute per-cycle ceiling."""
    e = fresh.get(COSIM_ENTRY)
    if e is None:
        failures.append(f"{COSIM_ENTRY}: gated entry missing from fresh run")
        return
    us = e.get("us_per_cycle")
    if us is None or e.get("cycles", 0) < 1:
        failures.append(f"{COSIM_ENTRY}: us_per_cycle or cycles missing")
    elif us > COSIM_MAX_US_PER_CYCLE:
        failures.append(
            f"{COSIM_ENTRY}: {us:.2f} us per simulated cycle exceeds the "
            f"{COSIM_MAX_US_PER_CYCLE:.0f} us ceiling")
    else:
        print(f"{COSIM_ENTRY}: {us:.2f} us/cycle over {e['cycles']:.0f} "
              f"cycles (ceiling {COSIM_MAX_US_PER_CYCLE:.0f} us) ok")
    if e.get("outputs_match") != 1:
        failures.append(f"{COSIM_ENTRY}: co-simulated gcd outputs differ "
                        "from the expected result")


def check_ctrl(fresh, failures):
    """Hold the control compiler to its absolute per-call ceilings."""
    e = fresh.get(CTRL_ENTRY)
    if e is None:
        failures.append(f"{CTRL_ENTRY}: gated entry missing from fresh run")
        return
    for field, ceiling in CTRL_MAX_US.items():
        us = e.get(field)
        if us is None:
            failures.append(f"{CTRL_ENTRY}: {field} missing")
        elif us > ceiling:
            failures.append(
                f"{CTRL_ENTRY}: {field} {us:.1f} us per compile_control "
                f"exceeds the {ceiling:.0f} us ceiling")
        else:
            print(f"{CTRL_ENTRY}: {field} {us:.1f} us "
                  f"(ceiling {ceiling:.0f} us) ok")
    for field in ("gcd_implicant_count", "seeded_implicant_count"):
        if e.get(field, 0) < 1:
            failures.append(f"{CTRL_ENTRY}: {field} missing or zero")


def check_odometer(fresh, failures):
    """Hold the serial dense-sweep odometer to its absolute ceiling."""
    e = fresh.get(ODOMETER_ENTRY)
    if e is None:
        failures.append(f"{ODOMETER_ENTRY}: gated entry missing from fresh "
                        "run")
        return
    ms = e.get("wall_ms_compiled")
    if ms is None:
        failures.append(f"{ODOMETER_ENTRY}: wall_ms_compiled missing")
    elif ms > ODOMETER_MAX_WALL_MS:
        failures.append(
            f"{ODOMETER_ENTRY}: compiled arm {ms:.1f} ms at 1 thread "
            f"exceeds the {ODOMETER_MAX_WALL_MS:.0f} ms ceiling")
    else:
        print(f"{ODOMETER_ENTRY}: compiled arm {ms:.1f} ms at 1 thread "
              f"(ceiling {ODOMETER_MAX_WALL_MS:.0f} ms) ok")


def check_server(path, failures):
    """Hold the server-throughput entries to their absolute floors."""
    entries = load_entries(path)
    gated = {n: e for n, e in entries.items()
             if n.startswith("server_throughput/")}
    if not gated:
        failures.append(f"--server {path}: no server_throughput/* entries")
        return
    for name, e in sorted(gated.items()):
        for field, floor in sorted(SERVER_GATED.items()):
            v = e.get(field)
            if v is None:
                failures.append(f"{name}: server field '{field}' missing")
            elif v < floor:
                failures.append(f"{name}: {field} = {v:.2f} below the "
                                f"{floor:.2f} floor")
            else:
                print(f"{name}.{field}: {v:.2f} (floor {floor:.2f}) ok")
        if e.get("fronts_identical") != "YES":
            failures.append(f"{name}: served fronts not byte-identical to "
                            "in-process synthesis")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh")
    ap.add_argument("baseline")
    ap.add_argument("--max-slowdown", type=float, default=0.25,
                    help="maximum allowed fractional drop of a gated "
                         "speedup ratio (default 0.25)")
    ap.add_argument("--server", metavar="BENCH_SERVER_JSON",
                    help="also hold BENCH_server.json entries to the "
                         "SERVER_GATED floors")
    args = ap.parse_args()

    fresh = load_entries(args.fresh)
    base = load_entries(args.baseline)

    failures = []
    print(f"{'entry':40s} {'base':>9s} {'fresh':>9s} {'ratio':>7s}  gate")
    for name in sorted(set(fresh) | set(base)):
        f, b = fresh.get(name), base.get(name)
        if f is None or b is None:
            status = "missing-in-fresh" if f is None else "new"
            print(f"{name:40s} {'-':>9s} {'-':>9s} {'-':>7s}  {status}")
            if name in GATED or name in ABS_FLOOR_GATED:
                # A gated headline must exist on *both* sides: missing in
                # fresh means the bench broke; missing in baseline means a
                # rename/GATED edit without regenerating the baseline —
                # either way the gate would be vacuous, so fail loudly.
                side = "fresh run" if f is None else "committed baseline"
                failures.append(f"{name}: gated entry missing from {side}")
            continue
        fs, bs = f.get("speedup"), b.get("speedup")
        if fs is None or bs is None or bs <= 0:
            continue
        ratio = fs / bs
        if name in ABS_FLOOR_GATED:
            floor = ABS_FLOOR_GATED[name]
            verdict = "ok(abs)"
            if fs < floor:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: speedup {fs:.2f}x below the absolute "
                    f"{floor:.1f}x floor")
            print(f"{name:40s} {bs:8.2f}x {fs:8.2f}x {ratio:6.2f}x  "
                  f"{verdict}")
            continue
        gated = name in GATED
        verdict = ""
        if gated:
            verdict = "ok"
            if ratio < 1.0 - args.max_slowdown:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: speedup {fs:.2f}x vs baseline {bs:.2f}x "
                    f"({(1.0 - ratio) * 100:.0f}% slowdown > "
                    f"{args.max_slowdown * 100:.0f}% allowed)")
        print(f"{name:40s} {bs:8.2f}x {fs:8.2f}x {ratio:6.2f}x  {verdict}")

    check_reference_enumeration(fresh, failures)
    check_parallel_health(fresh, failures)
    check_retarget(fresh, failures)
    check_node_parallel(fresh, failures)
    check_effectiveness(fresh, failures)
    check_lint_phase(fresh, failures)
    check_cosim(fresh, failures)
    check_ctrl(fresh, failures)
    check_odometer(fresh, failures)
    if args.server:
        check_server(args.server, failures)

    if any(f.get("fronts_identical") == "NO" for f in fresh.values()):
        failures.append("a fresh entry reports fronts_identical = NO")

    if failures:
        print("\nBench regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nBench regression check passed "
          f"(allowed slowdown {args.max_slowdown * 100:.0f}%).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
