#!/usr/bin/env python3
"""Run one workload several times and show how far its metrics spread.

Usage (from the repository root):

    python3 lifecycle_bench/spread.py --workload <name> [--runs 10]
        [--first-seed 1] [--sets 1] [--seconds <s>] [--trace 0]

Each run uses its own seed (first-seed, first-seed + 1, ...); with --sets 2
the same seeds run twice, as a second set.  For every metric the table
shows the median, the quartiles (statistics.quantiles(values, n=4)), the
min and max, the spread (q3 - q1) / median, and the bound BENCHMARK.json
gives the metric.  "ok" means the spread is within the bound (setup_s is
exempt); "steady" means it is within a third of it.  With two sets, the
second set's median is compared with the first's in the better direction.
It also prints the share of failed operations per run, which must be the
same in every run.  Exits 1 when a run fails or reports correct = false,
when the failed shares differ, when a bounded spread is TOO WIDE (setup_s
excepted), or when a second set's median is WORSE beyond the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"run with seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def summarize(name, values, spec):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    share = (q3 - q1) / med if med else float("inf")
    bound = spec.get("bound")
    unit = spec.get("unit", "")
    if bound is None:
        verdict = ""
    elif name == "setup_s":
        verdict = "exempt"
    elif share <= bound / 3:
        verdict = "steady"
    elif share <= bound:
        verdict = "ok"
    else:
        verdict = "TOO WIDE"
    bound_s = "" if bound is None else f"{bound:.3f}"
    print(f"  {name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(values):14.6g}"
          f" {max(values):14.6g} {share:8.4f} {bound_s:>6s} {verdict:8s} {unit}")
    return med, verdict != "TOO WIDE"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    spec, metric_spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    medians = []
    ok = True
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(args.workload, seed, seconds, args.trace)
            results.append(res)
            ok &= bool(res["correct"])
            print(f"set {s + 1} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"set {s + 1}: failed share per run: "
              + ", ".join(f"{x:.9f}" for x in shares)
              + ("  (identical)" if len(shares) == 1 else "  (DIFFERS)"))
        ok &= len(shares) == 1
        print(f"  {'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'min':>14s} {'max':>14s} {'spread':>8s} {'bound':>6s}")
        set_medians = {}
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            set_medians[name], within = summarize(name, values,
                                                  metric_spec.get(name, {}))
            ok &= within
        medians.append(set_medians)

    for s in range(1, len(medians)):
        print(f"set {s + 1} against set 1 (worse by at most the bound):")
        for name, first in sorted(medians[0].items()):
            m = metric_spec.get(name, {})
            if "bound" not in m or not first:
                continue
            now = medians[s][name]
            worse = (now - first) / first
            if m["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"  {name:40s} {first:14.6g} -> {now:14.6g}"
                  f"  worse by {worse:+.4f} (bound {m['bound']}) {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
