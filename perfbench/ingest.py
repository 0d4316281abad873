"""``ingest``: pipelined unchecked autocommit tells from several sessions.

One protocol-v2 connection carries :data:`SESSIONS` sessions.  One
thread keeps up to :data:`PER_SESSION` tells of each session in flight
(:data:`SESSIONS` × :data:`PER_SESSION` on the connection, inside the
service's default admission caps), sending the next tell as soon as a
reply frees a slot.  Each tell tells one new ``Event`` of its session's
class with a ``tag`` link.  The tells come in :data:`ROUNDS` rounds;
after each, the lockstep connection reads every class's extent
(``extent``) and the frames of :data:`FRAME_READS` of each session's
acked tells (``read``).  No rules, no constraints, no decisions.

The pipelined connection is the benchmark's own :class:`Pipeline`, not
the program's ``PipelinedTCPClient``: that client resolves replies on
a reader thread and offers no wait for whichever reply comes first, so
one sender refilling a window on every reply would time each reply
only when it came round to waiting on it.

Oracle: every acked tell must be in its class's extent (and nothing
else), frames read back must be the frames told, and the WAL must not
have fsynced more often than it committed.
"""

from __future__ import annotations

import json
import random
import socket
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from common import Samples, check
from served import Episode, ServedWorkload

SESSIONS = 8
PER_SESSION = 1
#: Each episode's tells come in this many rounds, each round followed
#: by every session reading its extent.
ROUNDS = 4
#: Acked tells of each session read back as frames after each round.
FRAME_READS = 2
TAGS = 10

SIZES = {
    False: dict(preload=50, tells=960),
    True: dict(preload=5, tells=96),
}


def event_frame(name: str, cls: str, tag: int) -> str:
    return f"TELL {name} IN {cls} WITH\n  attribute tag : T{tag}\nEND"


class Pipeline:
    """One protocol-v2 connection: write requests, read replies in the
    order the server sends them."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=60.0)
        # Several small frames go out while earlier ones are unanswered.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self._next_id = 0

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()

    def send(self, op: str, params: Dict[str, Any],
             session: Optional[str] = None) -> int:
        """Write one request frame; returns its id."""
        self._next_id += 1
        payload = {"id": self._next_id, "op": op, "params": params}
        if session is not None:
            payload["session"] = session
        self.sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        return self._next_id

    def recv(self) -> Tuple[int, Dict[str, Any]]:
        """Read one reply frame: ``(id, frame)``."""
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        frame = json.loads(line)
        return frame.get("id"), frame

    def hello(self) -> str:
        """Open a session, asking for protocol 2."""
        self.send("hello", {"protocol": 2})
        _, frame = self.recv()
        result = frame.get("result") or {}
        check(result.get("protocol") == 2, f"hello: {frame}")
        return str(result["session"])


class Ingest(ServedWorkload):
    name = "ingest"

    def build_template(self, path: str) -> None:
        from repro.conceptbase import ConceptBase
        from repro.propositions.wal import WalStore

        size = SIZES[self.toy]
        rng = random.Random(self.seed)
        self.extents: Dict[str, List[str]] = {}
        store = WalStore(path, fsync="commit")
        cb = ConceptBase(store=store)
        with cb.transaction():
            cb.tell("TELL Tag IN SimpleClass END")
            for tag in range(TAGS):
                cb.tell(f"TELL T{tag} IN Tag END")
            for s in range(SESSIONS):
                cls = f"Event{s}"
                cb.tell(f"TELL {cls} IN SimpleClass WITH\n"
                        f"  attribute tag : Tag\nEND")
                names = [f"P{s}x{i}" for i in range(size["preload"])]
                for name in names:
                    cb.tell(event_frame(name, cls, rng.randrange(TAGS)))
                self.extents[cls] = names
        store.checkpoint()
        store.close()

    def drive(self, client: Any, ep: int, samples: Samples,
              out: Episode) -> None:
        rng = random.Random(self.seed * 104729 + ep)
        total = SIZES[self.toy]["tells"]
        pipe = Pipeline(self.port)
        try:
            sessions = [pipe.hello() for _ in range(SESSIONS)]
            self.acked = {cls: [] for cls in self.extents}
            self.tags: Dict[str, int] = {}
            busy_s = 0.0
            for round_no in range(ROUNDS):
                queues = [deque() for _ in range(SESSIONS)]
                for i in range(total // ROUNDS):
                    s = i % SESSIONS
                    name = f"E{ep}r{round_no}s{s}x{i // SESSIONS}"
                    self.tags[name] = rng.randrange(TAGS)
                    queues[s].append((name, event_frame(
                        name, f"Event{s}", self.tags[name])))
                start = time.perf_counter()
                self._pipeline(pipe, sessions, queues, samples, out)
                busy_s += time.perf_counter() - start
                self._check_reads(client, rng, samples, out)
        finally:
            pipe.close()
        self.throughput.append(total / busy_s)

    def _check_reads(self, client: Any, rng: random.Random,
                     samples: Samples, out: Episode) -> None:
        for cls, acked in self.acked.items():
            names = self.timed(out, "instances",
                               lambda: client.instances(cls),
                               samples, "extent")
            want = set(self.extents[cls]) | set(acked)
            check(set(names) == want,
                  f"instances {cls}: {len(names)} names, "
                  f"{len(want)} told and acked")
            for name in rng.sample(acked, FRAME_READS):
                text = self.timed(out, "frame", lambda: client.frame(name),
                                  samples, "read")
                want_frame = event_frame(name, cls, self.tags[name])
                check(text.split() == want_frame.replace(
                    "attribute", "tag").split(), f"frame {name}: {text!r}")

    def _pipeline(self, pipe: Pipeline, sessions: List[str],
                  queues: List[deque], samples: Samples,
                  out: Episode) -> None:
        """Send every queued tell, keeping :data:`PER_SESSION` of each
        session in flight; record each tell's send-to-ack latency."""
        in_flight: Dict[int, tuple] = {}
        busy = [0] * SESSIONS
        while in_flight or any(queues):
            for s in range(SESSIONS):
                while busy[s] < PER_SESSION and queues[s]:
                    name, source = queues[s].popleft()
                    out.user_bytes += len(source.encode())
                    rid = pipe.send("tell", {"source": source}, sessions[s])
                    in_flight[rid] = (s, name, time.perf_counter())
                    busy[s] += 1
            rid, frame = pipe.recv()
            s, name, sent = in_flight.pop(rid)
            busy[s] -= 1
            elapsed = time.perf_counter() - sent
            out.wire_ms["tell"].append(elapsed * 1000.0)
            check(frame.get("ok"), f"tell {name}: {frame.get('error')}")
            samples.add("write", elapsed)
            self.acked[f"Event{s}"].append(name)

    def episode(self, ep: int, samples: Samples,
                traced: bool = False) -> Episode:
        out = super().episode(ep, samples, traced)
        check(out.counters["wal.fsyncs"]
              <= out.counters["server.commit.committed"],
              f"{out.counters['wal.fsyncs']:.0f} fsyncs for "
              f"{out.counters['server.commit.committed']:.0f} commits")
        return out

    def __init__(self, *args, **kwargs) -> None:
        self.throughput: List[float] = []
        super().__init__(*args, **kwargs)

    def describe(self, episodes: List[Episode],
                 samples: Samples) -> List[str]:
        from common import median
        return super().describe(episodes, samples) + [
            f"throughput_ops_s median: {median(self.throughput):.1f} "
            f"acked tells/s over {len(self.throughput)} episodes"]

    def check_restart(self, client: Any) -> None:
        for cls, names in self.extents.items():
            check(set(client.instances(cls)) == set(names) | set(
                self.acked[cls]), f"after restart, {cls} lost acked tells")
