#!/usr/bin/env python3
"""Run every workload repeatedly in fresh processes and summarise.

    python3 qabench/sweep.py --runs 10 --first-seed 1
    python3 qabench/sweep.py --runs 10 --first-seed 101   # a second seed set

Run ``i`` of each workload uses seed ``first-seed + i``; the workloads
take turns, so slow drift of the machine touches all of them alike.
For each end-to-end metric the sweep prints the median of the runs and
the interquartile spread, ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``, next to the bound that
``BENCHMARK.json`` fixes.  Every run lasts ``run_seconds`` of
``BENCHMARK.json``, the length the bounds were set at.  Every run's
result is kept in ``.qabench/sweep-seed<first-seed>.json``.  Exits 1 when
a run fails its checks or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{workload} seed {seed} printed no result:\n{completed.stderr}"
        )
    result = json.loads(lines[-1])
    result["exit_code"] = completed.returncode
    return result


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3) of ``values``."""
    q1, __, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    workloads = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for index in range(args.runs):
        for name in workloads:
            result = run_once(name, args.first_seed + index,
                              config["run_seconds"])
            results[name].append(result)
            print(f"  {name} seed {args.first_seed + index}: "
                  f"exit {result['exit_code']}, "
                  f"{result['failed']}/{result['attempted']} failed",
                  flush=True)

    ok = True
    print(f"\n{'workload':14s} {'metric':16s} {'median':>12s} {'Q1':>12s} "
          f"{'Q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name in workloads:
        runs = results[name]
        if any(run["exit_code"] != 0 or not run["correct"] for run in runs):
            ok = False
        shares = {run["failed"] / run["attempted"] for run in runs}
        for metric in config["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            median, q1, q3 = spread(values)
            share = (q3 - q1) / median
            flag = ""
            if share > metric["bound"]:
                flag, ok = "  over bound", False
            print(f"{name:14s} {metric['name']:16s} {median:12.4f} "
                  f"{q1:12.4f} {q3:12.4f} {share:7.3f} "
                  f"{metric['bound']:6.2f}{flag}")
        print(f"{name:14s} failed share per run: {sorted(shares)}")

    os.makedirs(os.path.join(ROOT, ".qabench"), exist_ok=True)
    path = os.path.join(ROOT, ".qabench", f"sweep-seed{args.first_seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"\nruns written to {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
