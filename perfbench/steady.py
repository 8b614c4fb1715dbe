#!/usr/bin/env python3
"""Steadiness report: runs the benchmark over a set of seeds and shows, for
every metric and workload, the median, the quartiles and the spread
(q3 - q1) / median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads diagnose,record,service]
        [--seeds 1-10] [--sets 1] [--seconds N] [--trace 0]

Quartiles are Python's statistics.quantiles(values, n=4). A spread under a
third of the bound is steady; under the bound, marginal; above it, too
noisy (setup_s is shown but not judged). With --sets 2 the whole set is run
twice and the second median is compared with the first. Runs of one seed
must repeat their exact counters; run.py enforces that and fails a run
that does not. Every run's context and result lines are appended to
perfbench/out/steady.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {' '.join(cmd)} exited with {done.returncode}")
    context = None
    for line in lines:
        if line.startswith("failure "):
            print(f"  {workload} seed {seed}: {line}")
        elif line.startswith("context "):
            context = json.loads(line[len("context "):])
    result = json.loads(lines[-1])
    with open(BENCH / "out" / "steady.jsonl", "a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                              "context": context, "result": result}) + "\n")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    seed_list = seeds(args.seeds)
    if len(seed_list) < 2:
        sys.exit("steady.py: quartiles need at least two seeds")

    worst = "steady"
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = [run_once(workload, seed, args.seconds, args.trace) for seed in seed_list]
            bad = [r for r in results if not r["correct"]]
            if bad:
                print(f"  {workload}: {len(bad)} run(s) reported correct=false")
                worst = "too noisy"
            sets.append(results)
        print(f"\n{workload}: {len(seed_list)} seeds x {args.sets} set(s), {args.seconds} s runs")
        print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            for i, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, sp = spread(values)
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = "steady" if sp < bound / 3 else "marginal" if sp <= bound else "too noisy"
                    if verdict != "steady" and worst != "too noisy":
                        worst = verdict
                if i > 0:
                    first = statistics.median(r["metrics"][name]["value"] for r in sets[0])
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if bound is not None and worse > bound:
                        verdict += f" drift {worse:+.1%} > bound"
                        worst = "too noisy"
                print(f"  {name + (f' [set {i + 1}]' if args.sets > 1 else ''):40} {med:12.5g} "
                      f"{q1:12.5g} {q3:12.5g} {sp:8.2%} {bound if bound is not None else '-':>6}  {verdict}")
    print(f"\noverall: {worst}")


if __name__ == "__main__":
    main()
