"""Run a workload's episodes for the asked time and assemble the result."""

from __future__ import annotations

import argparse
import json
import time
from typing import Any, Dict, List, Tuple

from common import Samples, WorkDir, median
from perlayer import PER_LAYER

#: End-to-end metrics (``--trace 0``), in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"), ("rss_mb", "MiB"),
    ("read_p50_ms", "ms"), ("write_p50_ms", "ms"),
)


def run_workload(cls: Any, args: argparse.Namespace, min_episodes: int,
                 toy: bool) -> Tuple[Dict[str, Any], List[str]]:
    """Run episodes of ``cls`` for ``args.seconds`` (and at least
    ``min_episodes`` of each kind the run needs); ``toy`` shrinks every
    input, for the self-test."""
    work = WorkDir()
    try:
        return _run(cls(args.seed, work, toy=toy), args, min_episodes)
    finally:
        work.close()


def _run(wl: Any, args: argparse.Namespace,
         min_episodes: int) -> Tuple[Dict[str, Any], List[str]]:
    samples = Samples()
    traced_samples = Samples()
    untraced: List[Any] = []
    traced: List[Any] = []
    start = time.perf_counter()
    half = start + args.seconds / 2.0
    end = start + args.seconds
    ep = 0
    while True:
        now = time.perf_counter()
        if args.trace:
            if now < half or len(untraced) < min_episodes:
                untraced.append(wl.episode(ep, samples))
            elif now < end or len(traced) < min_episodes:
                traced.append(wl.episode(ep, traced_samples, traced=True))
            else:
                break
        elif now < end or len(untraced) < min_episodes:
            untraced.append(wl.episode(ep, samples))
        else:
            break
        ep += 1
    measured_s = time.perf_counter() - start
    wl.restart_check()

    lines = [f"workload={wl.name} seed={args.seed} episodes={ep} "
             f"measured_s={measured_s:.2f}"]
    for cls_name, row in samples.report().items():
        lines.append(f"{cls_name}: " + json.dumps(row, sort_keys=True))
    lines += wl.describe(untraced, samples)
    runs = (samples, traced_samples)
    result: Dict[str, Any] = {
        "correct": True,
        "attempted": sum(sum(s.attempted.values()) for s in runs),
        "failed": sum(sum(s.failed.values()) for s in runs),
    }
    if args.trace:
        values = wl.per_layer(traced, untraced)
        values["trace.overhead_ms"] = (traced_samples.p50(wl.write_cls)
                                       - samples.p50(wl.write_cls))
        metrics = {name: {"value": float(values.get(name, 0.0)),
                          "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "setup_s": median([e.setup_s for e in untraced]),
            "rss_mb": median([e.rss_mb for e in untraced]),
            "read_p50_ms": samples.p50(wl.read_cls),
            "write_p50_ms": samples.p50(wl.write_cls),
        }
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
    result["metrics"] = metrics
    return result, lines

