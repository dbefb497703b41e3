#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric's spread.

Usage, from the root of a chanspec checkout::

    python3 chanbench/spread.py --workloads soundness cli_tools --seeds 1 2 3 4 5 --seconds 24

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
per workload and metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, plus the share of failed operations.  The per-kind
rates each run prints to standard error are summarised the same way.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rates = [line for line in proc.stderr.splitlines() if line.startswith("rates: ")]
    result["rates"] = json.loads(rates[-1][len("rates: "):]) if rates else {}
    return result


def summarise(results):
    """{metric: (median, q1, q3, iqr/median)} over a list of run results, per-kind rates included."""
    out = {}
    series = {name: [r["metrics"][name]["value"] for r in results] for name in results[0]["metrics"]}
    series.update({name: [r["rates"][name] for r in results] for name in results[0]["rates"]})
    for name, values in series.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = (median, q1, q3, (q3 - q1) / median if median else float("nan"))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    args = parser.parse_args()
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        failed = [r["failed"] / r["attempted"] for r in results]
        correct = all(r["correct"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        failed_ops = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, attempted {attempted}, failed {failed_ops}, "
              f"failed share {sorted(set(failed))}")
        for name, (median, q1, q3, spread) in summarise(results).items():
            print(f"  {name:34s} median {median:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  iqr/median {spread:7.4f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
