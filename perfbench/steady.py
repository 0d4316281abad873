"""Steadiness: run a workload on several seeds, summarise every metric.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload author [--runs 10] \\
        [--first-seed 1]

Each run is ``perfbench/run.py --trace 0`` in its own process with the
next seed, for the ``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the bound ``BENCHMARK.json`` gives the
metric, and the share of failed operations of every run.  This output
is the evidence for the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("nan")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = spec()
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = one_run(args.workload, seed, bench["run_seconds"])
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} "
              f"(share {share:.6f})", flush=True)
        runs.append(result)
    limits = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    summary = summarise(runs)
    for name, row in summary.items():
        bound = limits.get(name)
        print(f"{name:32} {row['median']:12.4f} {row['q1']:12.4f} "
              f"{row['q3']:12.4f} {row['spread']:8.4f} "
              f"{'' if bound is None else format(bound, '6.2f')}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed shares seen: {sorted(shares)}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
