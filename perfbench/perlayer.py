"""Per-layer metrics of the traced run, from the layer timers' dumps,
the client's latencies and the registry counters read around the
timed operations."""

from __future__ import annotations

from typing import Any, Dict, List

#: Per-layer metrics (``--trace 1``); a layer a workload leaves idle
#: reads 0.
PER_LAYER = (
    ("server.wire_ms", "ms"), ("server.handle_ms", "ms"),
    ("server.pipeline_wait_ms", "ms"), ("server.batch_size_mean", "count"),
    ("server.cpu_ms_per_op", "ms"),
    ("wal.fsyncs_per_commit", "ratio"), ("wal.fsync_ms", "ms"),
    ("wal.bytes_per_commit", "bytes"), ("wal.bytes_per_user_byte", "ratio"),
    ("objects.tell_ms", "ms"),
    ("propositions.closure_hit_ratio", "ratio"),
    ("propositions.closure_invalidations_per_write", "count"),
    ("assertions.ask_ms", "ms"),
    ("deduction.query_ms", "ms"), ("deduction.materialise_ms", "ms"),
    ("deduction.materialisations_per_op", "count"),
    ("deduction.deduced_ms_per_op", "ms"),
    ("consistency.check_ms", "ms"),
    ("consistency.evaluations_per_commit", "count"),
    ("decisions.apply_decide_ms", "ms"), ("decisions.apply_backtrack_ms", "ms"),
    ("decisions.graph_build_ms", "ms"), ("decisions.graph_builds_per_op", "count"),
    ("decisions.reapplied_per_backtrack", "count"),
    ("core.map_ms", "ms"), ("core.normalize_ms", "ms"),
    ("core.map_txn_ms", "ms"), ("core.retract_ms", "ms"),
    ("core.replay_ms", "ms"), ("core.props_per_step", "count"),
    ("trace.unattributed_ms", "ms"), ("trace.overhead_ms", "ms"),
)

#: Requests the benchmark sends outside its timed operations.
UNTIMED_OPS = ("hello", "ping", "stats", "bye")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class TraceSum:
    """Trace dumps of several episodes, summed."""

    def __init__(self) -> None:
        self.cells: Dict[str, Dict[str, List[float]]] = {}

    def add(self, dump: Dict[str, Dict[str, List[float]]]) -> None:
        for op, labels in dump.items():
            mine = self.cells.setdefault(op, {})
            for label, (calls, elapsed, own) in labels.items():
                cell = mine.setdefault(label, [0, 0.0, 0.0])
                cell[0] += calls
                cell[1] += elapsed
                cell[2] += own

    def get(self, label: str, op: str = None) -> List[float]:
        """``[calls, elapsed_ms, self_ms]`` of ``label`` (one op or all)."""
        total = [0, 0.0, 0.0]
        for name, labels in self.cells.items():
            if op is not None and name != op:
                continue
            cell = labels.get(label)
            if cell:
                total = [a + b for a, b in zip(total, cell)]
        return total

    def mean_self(self, label: str) -> float:
        calls, _, own = self.get(label)
        return ratio(own, calls)

    def mean_elapsed(self, label: str) -> float:
        calls, elapsed, _ = self.get(label)
        return ratio(elapsed, calls)


def served_per_layer(wl: Any, traced: List[Any],
                     untraced: List[Any]) -> Dict[str, float]:
    trace = TraceSum()
    for ep in traced:
        trace.add(ep.trace)
    wire: Dict[str, List[float]] = {}
    for ep in traced:
        for op, values in ep.wire_ms.items():
            wire.setdefault(op, []).extend(values)
    n_req = sum(len(v) for v in wire.values())
    client_ms = sum(sum(v) for v in wire.values())
    counters: Dict[str, float] = {}
    for ep in traced:
        for key, value in ep.counters.items():
            counters[key] = counters.get(key, 0.0) + value
    commits = counters.get("server.commit.committed", 0.0)
    # Session and stats requests are not timed by the client.
    handle = trace.get("server.handle")
    for op in UNTIMED_OPS:
        handle = [a - b for a, b in zip(handle,
                                        trace.get("server.handle", op))]
    queue = trace.get("server.queue_wait")
    batch = trace.get("server.batch_wait")
    own = trace.get("server.own_apply")
    ack = trace.get("server.ack_wait")
    fsync = trace.get("wal.fsync")
    hits = counters.get("proposition.closure_hits", 0.0)
    misses = counters.get("proposition.closure_misses", 0.0)
    reapplied = [n for ep in traced for n in ep.reapplied]
    untraced_req = sum(len(v) for ep in untraced for v in ep.wire_ms.values())
    metrics = {
        "server.wire_ms": ratio(client_ms - handle[1], n_req),
        "server.handle_ms": ratio(handle[2], n_req),
        "server.pipeline_wait_ms": ratio(
            queue[1] + batch[1] - own[1] + ack[1], queue[0]),
        "server.batch_size_mean": ratio(
            trace.get("server.batched_commits")[0],
            trace.get("server.batches")[0]),
        "server.cpu_ms_per_op": ratio(
            1000.0 * sum(ep.cpu_s for ep in untraced), untraced_req),
        "wal.fsyncs_per_commit": ratio(counters.get("wal.fsyncs", 0.0),
                                        commits),
        "wal.fsync_ms": ratio(fsync[1], fsync[0]),
        "wal.bytes_per_commit": ratio(sum(ep.wal_bytes for ep in traced),
                                       commits),
        "wal.bytes_per_user_byte": ratio(
            sum(ep.wal_bytes for ep in traced),
            sum(ep.user_bytes for ep in traced)),
        "objects.tell_ms": trace.mean_self("objects.tell"),
        "propositions.closure_hit_ratio": ratio(hits, hits + misses),
        "propositions.closure_invalidations_per_write": ratio(
            counters.get("proposition.closure_invalidations", 0.0), commits),
        "assertions.ask_ms": trace.mean_self("assertions.ask"),
        "deduction.query_ms": trace.mean_self("deduction.query"),
        "deduction.materialise_ms": trace.mean_elapsed(
            "deduction.materialise"),
        "deduction.materialisations_per_op": ratio(
            trace.get("deduction.materialise")[0], n_req),
        "deduction.deduced_ms_per_op": ratio(
            trace.get("deduction.deduced")[2], n_req),
        "consistency.check_ms": trace.mean_elapsed("consistency.check"),
        "consistency.evaluations_per_commit": ratio(
            counters.get("consistency.evaluations", 0.0), commits),
        "decisions.apply_decide_ms": trace.mean_self(
            "decisions.apply_decide"),
        "decisions.apply_backtrack_ms": trace.mean_self(
            "decisions.apply_backtrack"),
        "decisions.graph_build_ms": trace.mean_elapsed(
            "decisions.graph_build"),
        "decisions.graph_builds_per_op": ratio(
            trace.get("decisions.graph_build")[0], n_req),
        "decisions.reapplied_per_backtrack": ratio(sum(reapplied),
                                                    len(reapplied)),
    }
    # The budget check: a write's client latency less the time each
    # layer claims for it — the wire (client latency less the handler),
    # the handler's self time, the commit's queue and acknowledgement
    # waits, its wait for the rest of its group-commit batch (the other
    # commits' applies and the batch's fsync), and the self times of the
    # named layers the writer ran for the commit (objects, consistency,
    # deduction, decisions, the WAL's appends).  What the pipeline's
    # batch and apply code keep for themselves is claimed by no layer,
    # and neither is the rest of ``submit``.
    op = wl.write_op
    writes = wire.get(op, [])
    cells = trace.cells.get(op, {})
    if writes:
        handle_op = trace.get("server.handle", op)
        claimed = (sum(writes) - handle_op[1] + handle_op[2]
                   + sum(trace.get(label, op)[1] for label in (
                       "server.queue_wait", "server.shared_wait",
                       "server.ack_wait"))
                   + sum(cell[2] for label, cell in cells.items()
                         if not label.startswith("server.")
                         and label != "wal.fsync"))
        metrics["trace.unattributed_ms"] = (sum(writes) - claimed) \
            / len(writes)
    return metrics
