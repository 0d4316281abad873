"""Shared pieces: the serving process, latency samples, oracles' errors."""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for WAL files and traces, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


class OracleError(AssertionError):
    """An answer of the program disagreed with the benchmark's model."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_label(count: int) -> Optional[str]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond
    it; ``None`` below forty samples (no tail worth the name)."""
    if count < 40:
        return None
    for q in (99.9, 99.0, 90.0):
        if count * (1 - q / 100.0) >= 10:
            return f"p{q:g}"
    return "p90"


class Samples:
    """Client-side latencies (ms) and attempted/failed counts per op
    class."""

    def __init__(self) -> None:
        self.ms: Dict[str, List[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()

    def add(self, cls: str, seconds: float) -> None:
        self.attempted[cls] += 1
        self.ms[cls].append(seconds * 1000.0)

    def fail(self, cls: str) -> None:
        self.attempted[cls] += 1
        self.failed[cls] += 1

    def p50(self, cls: str) -> float:
        return median(self.ms.get(cls, []))

    def report(self) -> Dict[str, Any]:
        """Per class: count, attempted, failed, p50 and the tail."""
        out: Dict[str, Any] = {}
        for cls in sorted(self.attempted):
            values = self.ms.get(cls, [])
            row: Dict[str, Any] = {
                "attempted": self.attempted[cls],
                "failed": self.failed[cls],
                "n": len(values),
                "p50_ms": round(median(values), 4),
            }
            label = tail_label(len(values))
            if label is not None:
                row[f"{label}_ms"] = round(
                    percentile(values, float(label[1:])), 4)
            out[cls] = row
        return out


def proc_status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def self_peak_rss_mb() -> float:
    return proc_status_kb(os.getpid(), "VmHWM") / 1024.0


class WorkDir:
    """A private directory under :data:`WORK_ROOT`, removed on exit."""

    def __init__(self) -> None:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def copy_wal(src: str, dst: str) -> None:
    """Copy a WAL and its snapshot files (``dst`` replaced)."""
    for suffix in ("", ".snapshot", ".snapshot.prev"):
        if os.path.exists(dst + suffix):
            os.remove(dst + suffix)
        if os.path.exists(src + suffix):
            shutil.copyfile(src + suffix, dst + suffix)


class ServerProc:
    """One serving process (``serve.py``) on a WAL file."""

    def __init__(self, wal: str, rules: bool = False,
                 trace_out: Optional[str] = None) -> None:
        self.wal = wal
        self.trace_out = trace_out
        cmd = [sys.executable, os.path.join(HERE, "serve.py"),
               "--wal", wal, "--rules", "1" if rules else "0"]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode("ascii", "replace")
        if not line.startswith("READY "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return proc_status_kb(self.pid, "VmHWM") / 1024.0

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def stop(self) -> Dict[str, Any]:
        """SIGTERM (the service drains), wait; returns the trace dump
        when one was asked for."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not drain within 60 s")
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        if self.trace_out:
            with open(self.trace_out, encoding="utf-8") as handle:
                return json.load(handle)
        return {}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
