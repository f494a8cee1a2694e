#!/usr/bin/env python3
"""Compares two bench_micro binaries in alternating pairs.

    python3 scripts/paired_micro.py BASE CAND --filter REGEX [--pairs 10]

Runs BASE and CAND (two builds of bench/bench_micro, e.g. one from a
`git clone` of the parent commit) one after the other, --pairs times, on
the benchmarks that --filter selects, with --benchmark_min_time=1, and
reads their real_time. The order inside a pair alternates (BASE first, then
CAND first, ...) so that host drift hits both alike. For each benchmark it
prints every pair's ratio BASE time / CAND time (above 1 means CAND is
faster), then their median and quartiles (statistics.quantiles(ratios,
n=4)), the quartiles of BASE's own times as a share of their median, and
how many pairs CAND won.
"""

import argparse
import json
import statistics
import subprocess
import sys


MIN_TIME_S = 1


def run(binary, bench_filter):
    command = [binary, f"--benchmark_filter={bench_filter}", "--benchmark_format=json",
               f"--benchmark_min_time={MIN_TIME_S}"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True)
    times = {}
    for bench in json.loads(proc.stdout)["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        times[bench["name"]] = float(bench["real_time"])
    if not times:
        raise SystemExit(f"{binary}: no benchmark matches {bench_filter!r}")
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the reference bench_micro binary")
    parser.add_argument("cand", help="the bench_micro binary under test")
    parser.add_argument("--filter", required=True, help="--benchmark_filter regex")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    base_times = {}
    ratios = {}
    for pair in range(args.pairs):
        order = [("base", args.base), ("cand", args.cand)]
        if pair % 2 == 1:
            order.reverse()
        result = {side: run(binary, args.filter)
                  for side, binary in order}
        for name, base in result["base"].items():
            cand = result["cand"].get(name)
            if cand is None or cand <= 0:
                continue
            base_times.setdefault(name, []).append(base)
            ratios.setdefault(name, []).append(base / cand)
            print(f"pair {pair + 1:2d}  {name}  base {base:.4g}  cand {cand:.4g}  "
                  f"ratio {base / cand:.3f}", flush=True)

    for name, values in ratios.items():
        q1, median, q3 = quartiles(values)
        b1, bmed, b3 = quartiles(base_times[name])
        won = sum(1 for r in values if r > 1)
        print(f"{name}: median ratio {median:.3f}  quartiles [{q1:.3f}, {q3:.3f}]  "
              f"base spread (Q3-Q1)/median {(b3 - b1) / bmed:.3f}  "
              f"cand won {won}/{len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
