#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for one pass at a tiny scale, traced
and untraced, and asserts that:
  * each run exits 0 and ends with the JSON result line, correct, with no
    failed query;
  * the untraced run prints every end-to-end metric, the traced run every
    per-layer metric, each finite and with the unit BENCHMARK.json names;
    end-to-end values are positive;
  * perfbench/layers.json records every workload and every per-layer metric;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    fails without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def smoke_run(workload, trace, expected):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    label = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}")
    result = result_line(proc.stdout)
    check(isinstance(result, dict), f"{label}: no result line")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{label}: correct={result['correct']} failed={result['failed']}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted={result['attempted']}")
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          f"{label}: missing {sorted(set(expected) - set(metrics))}, "
          f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {name} = {value!r}")
        check(metrics[name]["unit"] == unit,
              f"{label}: {name} unit {metrics[name]['unit']!r}, want {unit!r}")
        if trace == 0:
            check(value > 0, f"{label}: {name} = {value}")
    print(f"ok  {label}: {len(metrics)} metrics", flush=True)


def bare_checkout_fails():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
               "imdb_serial", "--seed", "1", "--seconds", "1", "--trace", "0"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(command, cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "bare checkout: exit 0")
    check(result_line(proc.stdout) is None, "bare checkout: printed a result")
    print("ok  bare checkout fails without a result", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    check(set(layers["workloads"]) == set(workloads), "layers.json workloads")
    check({m["metric"] for m in layers["per_layer"]} == set(per_layer),
          "layers.json per-layer metrics")
    for workload in workloads:
        smoke_run(workload, 0, end_to_end)
        smoke_run(workload, 1, per_layer)
    bare_checkout_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"selftest FAILED: {error}", file=sys.stderr)
        sys.exit(1)
