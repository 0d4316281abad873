"""The benchmark's own fast self-test.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Runs every workload at toy size and requires a correct
result with operations attempted; then plants one wrong answer at a
time — a reply of the server altered on its way to the oracle, or a
result of the in-process GKBMS altered on its way out — and requires
the oracle to reject it.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

from common import OracleError  # noqa: E402
from runner import run_workload  # noqa: E402
from run import load  # noqa: E402
from repro.server.client import TCPClient  # noqa: E402


def toy_run(workload: str, trace: int = 0) -> tuple:
    """One episode of ``workload`` on the tiny inputs."""
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0,
                              trace=trace)
    return run_workload(load(workload), args, min_episodes=1, toy=True)


@contextmanager
def patched(owner: Any, attr: str, make: Callable[[Any], Any]) -> Iterator:
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def corrupt_reply(op: str, mutate: Callable[[dict], None], nth: int = 1):
    """Alter the result of the ``nth`` reply to ``op`` the lockstep
    client receives (every one for 0)."""
    seen = [0]

    def make(original):
        def request(self, payload):
            response = original(self, payload)
            if payload.get("op") == op and response.get("ok"):
                seen[0] += 1
                if nth in (0, seen[0]):
                    response = copy.deepcopy(response)
                    mutate(response["result"])
            return response
        return request
    return patched(TCPClient, "_request", make)


def after_restart(workload: str, op: str, mutate: Callable[[dict], None]):
    """Alter the first reply to ``op`` on the server restarted from the
    WAL alone (the restart oracle)."""
    def make(original):
        def check_restart(self, conn):
            with corrupt_reply(op, mutate):
                return original(self, conn)
        return check_restart
    return patched(load(workload), "check_restart", make)


def corrupt_return(owner: Any, attr: str, mutate: Callable[[Any], Any]):
    """Alter every value ``owner.attr`` returns."""
    def make(original):
        def wrapper(*args, **kwargs):
            return mutate(original(*args, **kwargs))
        return wrapper
    return patched(owner, attr, make)


def _set(key: str, value: Any) -> Callable[[dict], None]:
    return lambda result: result.__setitem__(key, value)


def _drop_first(key: str) -> Callable[[dict], None]:
    return lambda result: result[key].pop(0)


def _stats_fsyncs(result: dict) -> None:
    result["metrics"]["wal.fsyncs"] = 10 ** 9


def served_cases():
    def frame_target(result):
        result["frame"] = result["frame"].replace(" : P", " : Q", 1)
    return [
        ("author", "frame with a wrong sender",
         lambda: corrupt_reply("frame", frame_target)),
        ("author", "extent missing a document",
         lambda: corrupt_reply("instances", _drop_first("instances"))),
        ("author", "ask with the wrong truth value",
         lambda: corrupt_reply("ask", lambda r: r.update(
             holds=not r["holds"]))),
        ("author", "rule query without its answer",
         lambda: corrupt_reply("query", _set("answers", []))),
        ("author", "tell that created nothing",
         lambda: corrupt_reply("tell", _set("created", 0), nth=0)),
        ("author", "transaction that staged nothing",
         lambda: corrupt_reply("tell", _set("staged", 0), nth=0)),
        ("author", "acked tell missing after restart",
         lambda: after_restart("author", "instances",
                               _drop_first("instances"))),
        ("evolve", "backtrack retracting one decision too few",
         lambda: corrupt_reply("backtrack", _drop_first("retracted"))),
        ("evolve", "history with a decision too many",
         lambda: corrupt_reply("history", lambda r: r.update(
             recorded=r["recorded"] + 1))),
        ("evolve", "history with a justification edge missing",
         lambda: corrupt_reply("history", _drop_first("edges"))),
        ("evolve", "replay with the wrong applicability",
         lambda: corrupt_reply("replay", lambda r: r.update(
             applicable=not r["applicable"]))),
        ("evolve", "decide naming another output",
         lambda: corrupt_reply("decide", _set("outputs", ["Nothing"]))),
        ("ingest", "extent missing an acked tell",
         lambda: corrupt_reply("instances", _drop_first("instances"))),
        ("evolve", "ledger changed by the restart",
         lambda: after_restart("evolve", "history", lambda r: r.update(
             active=r["active"] - 1))),
        ("ingest", "acked tell missing after restart",
         lambda: after_restart("ingest", "instances",
                               _drop_first("instances"))),
        ("ingest", "more fsyncs than commits",
         lambda: corrupt_reply("stats", _stats_fsyncs, nth=2)),
    ]


def design_cases():
    from repro.core.backtracking import Backtracker
    from repro.core.navigation import Navigator
    from repro.core.replay import Replayer
    from repro.dbpl_engine.engine import Database
    from repro.errors import DBPLError

    def short_report(report):
        report.retracted_decisions = report.retracted_decisions[1:]
        return report

    def failed_replay(outcome):
        outcome.status = "failed"
        return outcome

    def broken_rows(_rows):
        raise DBPLError("constructor did not evaluate")

    return [
        ("design", "backtrack missing a consequent",
         lambda: corrupt_return(Backtracker, "retract", short_report)),
        ("design", "causal chain cut short",
         lambda: corrupt_return(Navigator, "causal_chain",
                                lambda chain: chain[:1])),
        ("design", "replay that did not re-create",
         lambda: corrupt_return(Replayer, "replay", failed_replay)),
        ("design", "constructor that does not evaluate",
         lambda: corrupt_return(Database, "rows", broken_rows)),
    ]


def main() -> int:
    failures = []
    for workload in ("author", "evolve", "ingest", "design"):
        for trace in (0, 1):
            start = time.perf_counter()
            try:
                result, _ = toy_run(workload, trace)
                ok = (result["correct"] and result["attempted"] > 0
                      and all(m["value"] == m["value"]
                              for m in result["metrics"].values()))
            except Exception as exc:  # noqa: BLE001 - reported below
                ok, result = False, {"error": repr(exc)}
            status = "ok" if ok else "FAIL"
            print(f"{status:4} {workload:7} toy run, trace={trace} "
                  f"({time.perf_counter() - start:.1f}s)", flush=True)
            if not ok:
                failures.append(f"{workload} trace={trace}: {result}")
    for workload, what, plant in served_cases() + design_cases():
        try:
            with plant():
                toy_run(workload)
            rejected = False
        except OracleError:
            rejected = True
        status = "ok" if rejected else "FAIL"
        print(f"{status:4} {workload:7} rejects: {what}", flush=True)
        if not rejected:
            failures.append(f"{workload}: accepted {what}")
    if failures:
        print("\n".join(["", "self-test failed:"] + failures))
        return 1
    print("\nself-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
