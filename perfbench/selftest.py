#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and run-to-run spread.

Run from the repository root:

    python3 perfbench/selftest.py determinism   # sim metrics repeat exactly per seed
    python3 perfbench/selftest.py spread --runs 10 --sets 2 [--workloads kv_rw ...]

`determinism` runs each simulator workload three times from one seed and
once from a second seed. The simulated-time latencies, slo_rate_ops_s,
index_lag_ms, failed_frac, bytes_per_user_byte and process.allocs_per_op
must repeat exactly, and the second seed must change the latencies. For
every wall-clock metric it prints the median, quartiles and worst
deviation of the repeated runs.

`spread` runs every workload once per seed, in `--sets` sets of `--runs`
seeds each (every set draws new seeds), and reports for each end-to-end
metric the median, the quartiles and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json. It fails when any
spread, setup_s included, exceeds a third of its bound, or when a later
set's median differs from the first set's by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIM_WORKLOADS = ["kv_rw", "social_app"]
# Metrics that must repeat exactly for a fixed seed on the simulator.
EXACT = ["read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us", "query_p50_us",
         "query_p99_us", "slo_rate_ops_s", "index_lag_ms", "failed_frac",
         "bytes_per_user_byte", "process.allocs_per_op"]
SEED_SENSITIVE = ["read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us"]
WALL = ["setup_s", "cpu_us_per_op", "peak_rss_mb"]


def run(workload, seed, seconds, trace=0):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    extra = json.loads(lines[-2])["workload_metrics"] if len(lines) > 1 else {}
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update({k: v["value"] for k, v in extra.items()})
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name, values):
    q1, med, q3 = quartiles(values)
    worst = max(abs(v - med) for v in values) / med if med else 0.0
    spread = (q3 - q1) / med if med else 0.0
    print(f"  {name:24s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
          f"iqr/median {spread:7.4f}  worst dev {worst:7.4f}")
    return spread


def determinism(args):
    ok = True
    for workload in SIM_WORKLOADS:
        runs = [run(workload, args.seed, args.seconds) for _ in range(3)]
        other = run(workload, args.seed + 1, args.seconds)
        print(f"{workload}: seed {args.seed} x3, seed {args.seed + 1} x1")
        for name in EXACT:
            if name not in runs[0]:
                continue
            same = all(r[name] == runs[0][name] for r in runs)
            changed = other[name] != runs[0][name]
            print(f"  {name:24s} {runs[0][name]!r:>22} repeats={same} "
                  f"seed{args.seed + 1}={other[name]!r}")
            ok = ok and same
            if name in SEED_SENSITIVE and not changed:
                print(f"  note: {name} did not change with the seed")
        if not any(other[n] != runs[0][n] for n in SEED_SENSITIVE):
            print("  FAIL: a second seed changed no latency")
            ok = False
        for name in WALL:
            describe(name, [r[name] for r in runs])
    runs = [run("threaded_point", args.seed, args.seconds) for _ in range(3)]
    print(f"threaded_point: seed {args.seed} x3 (wall clock)")
    for name in WALL + SEED_SENSITIVE + ["ops_per_s"]:
        describe(name, [r[name] for r in runs])
    print("determinism:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def spread(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    summary = {}
    for k in range(args.sets):
        for workload in workloads:
            first = args.seed + k * args.runs
            runs = [run(workload, first + i, args.seconds) for i in range(args.runs)]
            print(f"{workload} set {k + 1}: seeds {first}..{first + args.runs - 1}")
            sets = summary.setdefault(workload, {})
            for name, bound in bounds.items():
                values = [r[name] for r in runs]
                s = describe(name, values)
                flag = "" if s <= bound / 3 else "  <-- above bound/3"
                ok = ok and not flag
                if k > 0:
                    base = statistics.median(sets[name][0])
                    shift = (statistics.median(values) - base) / base
                    if abs(shift) > bound:
                        flag += f"  <-- median moved {shift:+.4f} from set 1"
                        ok = False
                print(f"  {'':24s} bound {bound}{flag}")
                sets.setdefault(name, []).append(values)
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "selftest-spread.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("spread:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    d = sub.add_parser("determinism")
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--seconds", type=int, default=10)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--sets", type=int, default=2)
    s.add_argument("--seed", type=int, default=100)
    s.add_argument("--seconds", type=int, default=10)
    s.add_argument("--workloads", nargs="*")
    args = parser.parse_args()
    return determinism(args) if args.mode == "determinism" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
