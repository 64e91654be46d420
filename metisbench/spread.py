#!/usr/bin/env python3
"""Runs the benchmark once per seed and workload and reports each metric's spread.

    python3 metisbench/spread.py                         # every workload, seeds 1-10
    python3 metisbench/spread.py --workload zoo_audited --seeds 1,2,5-7 --trace 1

Run from the repository root. Each run is the `command` of BENCHMARK.json
with `--workload W --seed N --seconds S --trace T` appended, and must print
exactly the metrics and units BENCHMARK.json declares. For every metric the
script prints the median, the quartiles as `statistics.quantiles(n=4)` gives
them, and the spread (interquartile range over median) next to the metric's
bound and a third of it. Exits 1 when a run fails, disagrees with
BENCHMARK.json, or an end-to-end spread other than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_workload(bench, workload, seeds, seconds, trace):
    """Runs one workload over `seeds`; returns {metric: [values]} or None."""
    declared = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    values = {}
    for seed in seeds:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", trace,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return None
        metrics = json.loads(lines[-1])["metrics"]
        got = {n: m["unit"] for n, m in metrics.items()}
        if got != units:
            diff = sorted(set(got.items()) ^ set(units.items()))
            print(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: {diff}",
                  file=sys.stderr)
            return None
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in metrics.items()), flush=True)
    return values


def report(workload, values, bounds):
    """Prints the spread table; returns whether an end-to-end spread is over its bound."""
    over = False
    print(f"\n{workload}")
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>10}"
          f"{'bound':>8}{'bound/3':>9}")
    for name, vals in values.items():
        if len(vals) < 2:
            print(f"{name:<28}{vals[0]:>14.6g}")
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag, over = " OVER BOUND", True
            elif spread > bound / 3:
                flag = " over bound/3"
        b = f"{bound:>8.3f}{bound / 3:>9.3f}" if bound is not None else f"{'-':>8}{'-':>9}"
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>10.4f}{b}{flag}")
    return over


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    failed = False
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = run_workload(bench, workload, args.seeds, seconds, args.trace)
        if values is None:
            failed = True
            continue
        failed |= report(workload, values, bounds)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
