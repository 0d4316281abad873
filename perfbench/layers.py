"""Timers around the public calls of each layer, installed from outside.

The traced run wraps named functions of the program with
:meth:`LayerTrace.wrap`; nothing under ``src/`` is edited.  Each wrapped
call records its elapsed time and its *self* time (elapsed minus the
wrapped calls it made on the same thread), keyed by the wire op of the
request it serves and by a layer label.

Work that crosses threads is stitched by the commit itself: the
pending commit is stamped when it is created (in the submitting
thread, which knows the op), and the writer thread attributes its
batch, apply and fsync time to that op.  The time a submitter spends
waiting for the writer is measured directly, per commit: queue wait
(creation of the commit to the start of its batch), batch wait (the
whole group-commit batch it rode in), of which its own apply and its
shared wait (the other commits' applies and the batch's fsync), and
acknowledgement wait (end of the batch to the return of ``submit``).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Union

Label = Union[str, Callable[..., str]]


class LayerTrace:
    """Per-(op, label) call counts, elapsed and self times."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (op, label) -> [calls, elapsed_s, self_s]
        self.cells: Dict[tuple, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self._restore: List[tuple] = []

    # -- attribution ------------------------------------------------------

    @property
    def op(self) -> str:
        return getattr(self._local, "op", "-")

    @op.setter
    def op(self, value: str) -> None:
        self._local.op = value

    def add(self, label: str, elapsed: float, self_time: float,
            op: Optional[str] = None, calls: int = 1) -> None:
        with self._lock:
            cell = self.cells[(op or self.op, label)]
            cell[0] += calls
            cell[1] += elapsed
            cell[2] += self_time

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ---------------------------------------------------------

    def timed(self, original: Callable[..., Any], label: Label,
              before: Optional[Callable[..., None]] = None,
              after: Optional[Callable[..., None]] = None
              ) -> Callable[..., Any]:
        """A timed wrapper of ``original``.

        ``label`` may be a callable of the call's arguments.  ``before``
        runs first with the arguments; ``after`` runs last with
        ``(start, end, result, args, kwargs)``."""
        trace = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            name = label(*args, **kwargs) if callable(label) else label
            stack = trace._stack()
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                elapsed = end - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                trace.add(name, elapsed, elapsed - children)
                if after is not None:
                    after(start, end, result, args, kwargs)

        return wrapper

    def wrap(self, owner: Any, attr: str, label: Label,
             before: Optional[Callable[..., None]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` by :meth:`timed` of it."""
        self.replace(owner, attr, self.timed(getattr(owner, attr), label,
                                             before, after))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`unwrap_all`."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------

    def to_json(self) -> Dict[str, Dict[str, List[float]]]:
        """``{op: {label: [calls, elapsed_ms, self_ms]}}``."""
        out: Dict[str, Dict[str, List[float]]] = {}
        with self._lock:
            for (op, label), (calls, elapsed, own) in self.cells.items():
                out.setdefault(op, {})[label] = [
                    calls, elapsed * 1000.0, own * 1000.0]
        return out


def install_server(trace: LayerTrace) -> None:
    """Wrap the served path's layer entry points (serving process)."""
    from repro.conceptbase import ConceptBase
    from repro.consistency.checker import ConsistencyChecker
    from repro.decisions.engine import DecisionHistory
    from repro.decisions.graph import JustificationGraph
    from repro.deduction.kb import RuleEngine
    from repro.propositions.wal import WalStore
    from repro.server.pipeline import CommitPipeline, PendingCommit
    from repro.server.service import GKBMSService

    #: id(pending commit) -> (op, creation time); the commit's slots
    #: leave no room for stamps of its own.
    stamps: Dict[int, tuple] = {}
    #: id(pending commit) -> seconds its own apply took.
    applied: Dict[int, float] = {}
    #: id(commit result) -> (op, queue wait, batch time, own apply,
    #: shared wait, end of its batch).
    finished: Dict[int, tuple] = {}
    #: Seconds the current batch has spent in fsync (writer thread).
    batch_fsync = [0.0]

    def on_handle(service: Any, frame: Any, **_kw: Any) -> None:
        op = str(frame.get("op", "?")) if isinstance(frame, dict) else "?"
        if op == "tell":
            # A tell inside a transaction only stages; it is kept apart
            # from the autocommit tells that go through the pipeline.
            try:
                if service.sessions.get(frame.get("session")) \
                        .in_transaction:
                    op = "tell_staged"
            except Exception:  # noqa: BLE001 - handle reports it
                pass
        trace.op = op

    original_init = PendingCommit.__init__

    @functools.wraps(original_init)
    def pending_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        stamps[id(self)] = (trace.op, time.perf_counter())

    trace.replace(PendingCommit, "__init__", pending_init)

    def op_of(pending: Any) -> str:
        return stamps.get(id(pending), ("-", 0.0))[0]

    def on_batch(_self: Any, batch: Any) -> None:
        trace.op = op_of(batch[0]) if batch else "-"
        batch_fsync[0] = 0.0

    def after_batch(start: float, end: float, _result: Any,
                    args: tuple, _kw: Any) -> None:
        owns = [applied.pop(id(pending), 0.0) for pending in args[1]]
        for pending, own in zip(args[1], owns):
            op, created = stamps.pop(id(pending), ("-", start))
            # What the commit waited for on behalf of the batch: the
            # other commits' applies and the batch's fsync.
            shared = sum(owns) - own + batch_fsync[0]
            if pending.result is not None:
                finished[id(pending.result)] = (
                    op, start - created, end - start, own, shared, end)
        trace.add("server.batches", 0.0, 0.0, calls=1)
        trace.add("server.batched_commits", 0.0, 0.0, calls=len(args[1]))

    def on_apply(_self: Any, pending: Any) -> None:
        trace.op = op_of(pending)

    def after_apply(start: float, end: float, _result: Any,
                    args: tuple, _kw: Any) -> None:
        applied[id(args[1])] = end - start

    def after_submit(start: float, end: float, result: Any,
                     _args: tuple, _kw: Any) -> None:
        entry = finished.pop(id(result), None) if result is not None \
            else None
        if entry is None:
            return
        op, queue_wait, batch, own, shared, batch_end = entry
        ack = max(0.0, end - batch_end)
        for label, value in (("server.queue_wait", queue_wait),
                             ("server.batch_wait", batch),
                             ("server.own_apply", own),
                             ("server.shared_wait", shared),
                             ("server.ack_wait", ack)):
            trace.add(label, value, value, op=op)

    def after_fsync(start: float, end: float, *_a: Any) -> None:
        batch_fsync[0] += end - start

    trace.wrap(GKBMSService, "handle", "server.handle", before=on_handle)
    trace.wrap(CommitPipeline, "submit", "server.submit", after=after_submit)
    trace.wrap(CommitPipeline, "_process", "server.batch", before=on_batch,
               after=after_batch)
    trace.wrap(GKBMSService, "_apply_commit", "server.apply",
               before=on_apply, after=after_apply)
    trace.wrap(WalStore, "_force", "wal.fsync", after=after_fsync)
    trace.wrap(WalStore, "_append", "wal.append")
    trace.wrap(ConceptBase, "tell", "objects.tell")
    trace.wrap(ConceptBase, "ask_object", "objects.frame")
    trace.wrap(ConceptBase, "instances", "propositions.instances")
    trace.wrap(ConceptBase, "ask", "assertions.ask")
    trace.wrap(ConceptBase, "query", "deduction.query")
    trace.wrap(RuleEngine, "materialise", "deduction.materialise")
    trace.wrap(RuleEngine, "deduced_propositions", "deduction.deduced")
    trace.wrap(ConsistencyChecker, "check_batch", "consistency.check")
    trace.wrap(DecisionHistory, "apply_decide", "decisions.apply_decide")
    trace.wrap(DecisionHistory, "apply_backtrack",
               "decisions.apply_backtrack")
    trace.wrap(DecisionHistory, "history", "decisions.history")
    trace.wrap(DecisionHistory, "replay", "decisions.replay")
    trace.wrap(JustificationGraph, "__init__", "decisions.graph_build")


_TOOL_LABELS = {
    "Normalizer": "core.normalize",
    "TransactionMapper": "core.map_txn",
}
#: The labels of ``GKBMS.execute``, one per kind of tool.
EXECUTE_LABELS = ("core.map",) + tuple(_TOOL_LABELS.values())


def _execute_label(_self: Any, decision_class: str, *_a: Any,
                   **kwargs: Any) -> str:
    return _TOOL_LABELS.get(kwargs.get("tool") or "", "core.map")


def install_core(trace: LayerTrace) -> None:
    """Wrap the in-memory GKBMS's entry points (``design``): each
    decision step (``GKBMS.execute`` by tool) and the calls it makes
    into the tool and the decision engine."""
    from dataclasses import replace

    from repro.core.backtracking import Backtracker
    from repro.core.decisions import DecisionEngine
    from repro.core.gkbms import GKBMS
    from repro.core.mapping import registry
    from repro.core.replay import Replayer
    from repro.deduction.kb import RuleEngine

    standard_tools = registry.standard_tools

    def timed_tools() -> List[Any]:
        return [replace(tool, apply=trace.timed(tool.apply, "core.tool"))
                if tool.apply is not None else tool
                for tool in standard_tools()]

    trace.replace(registry, "standard_tools", timed_tools)
    trace.wrap(GKBMS, "execute", _execute_label)
    trace.wrap(GKBMS, "snapshot_artifacts", "core.snapshot")
    trace.wrap(DecisionEngine, "check_applicability", "core.applicability")
    trace.wrap(DecisionEngine, "_document", "core.document")
    trace.wrap(DecisionEngine, "_raise_obligations", "core.obligations")
    trace.wrap(Backtracker, "retract", "core.retract")
    trace.wrap(Replayer, "replay", "core.replay")
    trace.wrap(RuleEngine, "materialise", "deduction.materialise")
