"""The served workloads' common episode: fresh server, fixed op list.

An *episode* copies the run's preloaded WAL, starts a serving process
on it (the time until it answers ``ping`` is one ``setup_s`` sample),
drives a fixed, seeded list of operations over one connection of the
program's own lockstep client (``TCPClient``), and stops the server.  Every episode starts from the same base, so base
and ledger sizes never depend on how fast the machine is, and a run is
a whole number of episodes.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from common import Samples, ServerProc, WorkDir, copy_wal, median
from perlayer import served_per_layer

#: Registry counters read (via the ``stats`` op) around the timed ops.
COUNTERS = (
    "server.commit.committed", "wal.fsyncs",
    "proposition.closure_hits", "proposition.closure_misses",
    "proposition.closure_invalidations", "consistency.evaluations",
    "deduction.materialisations",
)


class Episode:
    """What one episode measured besides the samples."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.rss_mb = 0.0
        self.cpu_s = 0.0
        self.wal_bytes = 0
        self.user_bytes = 0
        self.counters: Dict[str, float] = {}
        #: wire op -> client latencies (ms) of every timed request.
        self.wire_ms: Dict[str, List[float]] = defaultdict(list)
        self.trace: Dict[str, Any] = {}
        self.reapplied: List[int] = []


class ServedWorkload:
    """Base of ``author``, ``evolve`` and ``ingest``."""

    name = "?"
    rules = False
    #: The op classes behind ``write_p50_ms`` and ``read_p50_ms``.
    write_cls = "write"
    read_cls = "read"
    #: The wire op of the write class (``trace.unattributed_ms``).
    write_op = "tell"

    def __init__(self, seed: int, work: WorkDir, toy: bool = False) -> None:
        self.seed = seed
        self.work = work
        self.toy = toy
        self.template = work.file("template.wal")
        self.wal = work.file("episode.wal")
        self.build_template(self.template)

    # -- subclass hooks -----------------------------------------------------

    def build_template(self, path: str) -> None:
        raise NotImplementedError

    def drive(self, client: Any, ep: int, samples: Samples,
              out: Episode) -> None:
        raise NotImplementedError

    def check_restart(self, client: Any) -> None:
        """Oracle run on a server restarted from the last episode's
        WAL alone (no rules); default: nothing to check."""

    # -- timing helpers -----------------------------------------------------

    @staticmethod
    def timed(out: Episode, op: str, call: Callable[[], Any],
              samples: Optional[Samples] = None,
              cls: Optional[str] = None) -> Any:
        """``call()`` — one request of wire op ``op`` — timed from the
        client; the time is also one sample of ``cls``."""
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        out.wire_ms[op].append(seconds * 1000.0)
        if cls is not None:
            samples.add(cls, seconds)
        return result

    # -- the episode ------------------------------------------------------

    def episode(self, ep: int, samples: Samples,
                traced: bool = False) -> Episode:
        from repro.server.client import TCPClient

        out = Episode()
        copy_wal(self.template, self.wal)
        trace_out = self.work.file("trace.json") if traced else None
        start = time.perf_counter()
        server = ServerProc(self.wal, rules=self.rules, trace_out=trace_out)
        #: The episode's server, for a workload that opens a second
        #: connection of its own.
        self.port = server.port
        client = None
        try:
            client = TCPClient(port=server.port, timeout=60.0,
                               auto_hello=False)
            client.ping()
            out.setup_s = time.perf_counter() - start
            client.hello()
            before = self._counters(client)
            wal_before = os.path.getsize(self.wal)
            cpu_before = server.cpu_s()
            self.drive(client, ep, samples, out)
            out.cpu_s = server.cpu_s() - cpu_before
            out.wal_bytes = os.path.getsize(self.wal) - wal_before
            after = self._counters(client)
            out.counters = {k: after.get(k, 0) - before.get(k, 0)
                            for k in COUNTERS}
            out.rss_mb = server.peak_rss_mb()
            client.close()
            client = None
            out.trace = server.stop()
        except BaseException:
            if client is not None:
                client.close()
            server.kill()
            raise
        return out

    def restart_check(self) -> None:
        """Restart on the last episode's WAL and run the oracle."""
        from repro.server.client import TCPClient

        server = ServerProc(self.wal, rules=False)
        try:
            client = TCPClient(port=server.port, timeout=60.0)
            try:
                self.check_restart(client)
            finally:
                client.close()
            server.stop()
        finally:
            server.kill()

    def per_layer(self, traced: List[Episode],
                  untraced: List[Episode]) -> Dict[str, float]:
        return served_per_layer(self, traced, untraced)

    def describe(self, episodes: List[Episode],
                 samples: Samples) -> List[str]:
        """Report lines beyond the per-class rows."""
        wal = sum(e.wal_bytes for e in episodes)
        user = sum(e.user_bytes for e in episodes)
        lines = [
            "setup_s samples: " + " ".join(
                f"{e.setup_s:.4f}" for e in episodes),
            f"rss_mb median: {median([e.rss_mb for e in episodes]):.2f}",
        ]
        if user:
            lines.append(f"wal_bytes_per_user_byte: {wal / user:.4f} "
                         f"({wal} WAL bytes for {user} bytes of source)")
        return lines

    @staticmethod
    def _counters(client: Any) -> Dict[str, float]:
        metrics = client.stats()
        return {k: float(metrics.get(k, 0) or 0) for k in COUNTERS}
