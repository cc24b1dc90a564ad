#!/usr/bin/env python3
"""Runs one workload of the benchmark on several seeds and prints, per
metric, the median, the quartiles and the spread (interquartile range over
median), the figures a bound is checked against.

    python3 perfbench/spread.py --workload fleet_excursion --seeds 1-10

Use it to check that the benchmark is steady, and to compare two commits:
run it in each checkout with the same seeds (including seeds not used while
writing the change) and compare medians against the bounds in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values = {}
    units = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace], capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: checks failed\n{out.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        print(f"{name:40} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{stats.relative_spread(vs):8.4f} {units[name]}")


if __name__ == "__main__":
    main()
