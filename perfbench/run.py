"""The GKBMS benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload author|evolve|ingest|design \\
        --seed N --seconds S --trace 0|1

The run repeats whole episodes (a fixed, seeded list of operations on
a freshly set-up system) until ``--seconds`` have passed, checks every
answer against the benchmark's own model, and prints one line per op
class (``#`` comments) followed by the result object as the last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
first half of its time untraced and the second half with the layer
timers installed, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("author", "evolve", "ingest", "design")


def load(name: str):
    if name == "author":
        from author import Author
        return Author
    if name == "evolve":
        from evolve import Evolve
        return Evolve
    if name == "ingest":
        from ingest import Ingest
        return Ingest
    from design import Design
    return Design


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro beside perfbench/; run from the root "
              "of a checkout of the program", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from runner import run_workload
    from common import OracleError

    try:
        result, lines = run_workload(load(args.workload), args,
                                     min_episodes=3, toy=False)
    except OracleError as exc:
        print(f"perfbench: oracle rejected an answer: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
