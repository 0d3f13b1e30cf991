#!/usr/bin/env python3
"""Steadiness self-check for the dasched benchmark.

    python3 perfbench/steady.py [--runs 5] [--workloads a,b] [--seed0 101]
                                [--out perfbench/baseline.json]
                                [--compare perfbench/baseline.json]

For each workload it runs the benchmark --runs times untraced, each with
another seed, and reports every end-to-end metric's median, quartiles and
spread (interquartile range over median) against the bound in BENCHMARK.json.
A spread above a third of its bound is flagged "wide", above the bound
"FAIL"; setup_s is reported but not gated.  It then reruns the first seed
untraced and twice traced and flags every sim_* metric and every count that
does not repeat exactly.  With --compare it also flags every metric whose
median is worse than the one in an earlier --out file by more than its bound.
Exit status 1 when any run failed or anything was flagged FAIL.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


WALL = []  # wall seconds of every benchmark process started


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    WALL.append(time.monotonic() - start)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = (proc.returncode == 0 and result is not None and result["correct"]
          and result["failed"] == 0)
    return ok, result


def spread_stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(new, old, better):
    """Relative worsening of `new` against `old` (negative = better)."""
    if old == 0:
        return 0.0
    delta = (new - old) / old
    return delta if better == "lower" else -delta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed0", type=int, default=101)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    flagged = False
    report = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "runs": args.runs,
        "seeds": list(range(args.seed0, args.seed0 + args.runs)),
        "repro": "python3 perfbench/steady.py --runs %d --seed0 %d"
                 % (args.runs, args.seed0),
        "workloads": {},
    }
    for workload in workloads:
        print("== %s" % workload, flush=True)
        runs = []
        for k in range(args.runs):
            ok, result = run_once(workload, args.seed0 + k, seconds, 0)
            if not ok:
                print("  run with seed %d FAILED: %s"
                      % (args.seed0 + k, result), flush=True)
                flagged = True
                continue
            runs.append(result["metrics"])
        entry = {"end_to_end": {}, "per_layer": {}, "repeatable": True}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name]["value"] for r in runs if name in r]
            if len(values) < 2:
                print("  %-18s missing" % name)
                flagged = True
                continue
            stats = spread_stats(values)
            verdict = "ok"
            if name != "setup_s" and stats["spread"] > bound:
                verdict = "FAIL"
            elif name != "setup_s" and stats["spread"] > bound / 3:
                verdict = "wide"
            old = earlier.get(workload, {}).get("end_to_end", {}).get(name)
            if old is not None:
                shift = worse_by(stats["median"], old["median"],
                                 metric["better"])
                stats["worse_than_earlier"] = shift
                if shift > bound:
                    verdict = "FAIL"
            flagged |= verdict == "FAIL"
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            print("  %-18s median %14.6f  q1 %14.6f  q3 %14.6f  spread %.4f"
                  " (bound %.2f) %s" % (name, stats["median"], stats["q1"],
                                        stats["q3"], stats["spread"], bound,
                                        verdict), flush=True)

        # Exact repeatability on the first seed.
        seed = args.seed0
        if runs:
            ok, again = run_once(workload, seed, seconds, 0)
            for name, value in (again or {}).get("metrics", {}).items():
                if name.startswith("sim_") and value != runs[0][name]:
                    print("  %s does not repeat on seed %d" % (name, seed))
                    entry["repeatable"] = False
            entry["repeatable"] &= ok
        traced = [run_once(workload, seed, seconds, 1) for _ in range(2)]
        if all(ok for ok, _ in traced):
            first, second = (t["metrics"] for _, t in traced)
            for name, value in first.items():
                if value["unit"] == "count" and second.get(name) != value:
                    print("  %s does not repeat on seed %d" % (name, seed))
                    entry["repeatable"] = False
            entry["per_layer"] = {n: v["value"] for n, v in first.items()}
        else:
            print("  traced run FAILED")
            entry["repeatable"] = False
        print("  sim_* and counts repeat exactly: %s"
              % ("yes" if entry["repeatable"] else "NO (FAIL)"), flush=True)
        flagged |= not entry["repeatable"]
        report["workloads"][workload] = entry

    print("runs: %d, longest %.1f s, total %.1f s"
          % (len(WALL), max(WALL, default=0.0), sum(WALL)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
