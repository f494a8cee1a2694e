#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10] [--seconds S]

Runs two sets of runs of the same code, A and B, interleaved seed by seed
(A, B, A, B, ...) so that host drift hits both alike; every run uses
another seed. For each end-to-end metric of BENCHMARK.json it reports each
set's median and quartile spread ((Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them) and how much worse B's median
is than A's. It exits 1 when a spread exceeds the metric's bound, or a
median moved by more than it. --workloads and --seeds make quick tuning
runs shorter.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    context = [line for line in lines if line.startswith("#")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} reported wrong results")
    return {name: m["value"] for name, m in result["metrics"].items()}, context


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", help="write every run's metrics here as JSON")
    args = parser.parse_args()

    metrics = bench["end_to_end"]
    workloads = args.workloads.split(",")
    sets = "AB"
    runs = {(w, s): [] for w in workloads for s in sets}
    for i in range(args.seeds):
        seed = i + 1
        for workload in workloads:
            for name in sets:
                values, context = run_once(workload, seed, args.seconds)
                runs[(workload, name)].append(values)
                loops = " ".join(line.split(":")[1].strip() for line in context
                                 if "reference loop" in line)
                print(f"{workload} set {name} seed {seed}: " +
                      ", ".join(f"{m['name']}={values[m['name']]:.4g}" for m in metrics) +
                      f"  [host loop {loops}]", flush=True)

    ok = True
    print(f"\n{'workload':14} {'metric':14} {'bound':>6} " +
          " ".join(f"{'median ' + s:>12} {'spread ' + s:>9}" for s in sets) +
          "  B worse by")
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for s in sets:
                median, rel = spread([r[name] for r in runs[(workload, s)]])
                medians.append(median)
                flag = "" if rel <= bound / 3 else ("*" if rel <= bound else "!")
                ok &= rel <= bound
                cells.append(f"{median:12.5g} {rel:8.2%}{flag or ' '}")
            shift = worse_by(medians[0], medians[1], metric["better"])
            ok &= shift <= bound
            print(f"{workload:14} {name:14} {bound:6.2f} " + " ".join(cells) +
                  f"  {shift:+8.2%}{'' if shift <= bound else ' !'}")
    print("\n* spread above a third of the bound; ! outside the bound")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({f"{w}/{s}": v for (w, s), v in runs.items()}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
