"""The serving process: a WAL-backed GKBMSService behind AsyncGKBMSServer.

Run by the benchmark, one process per episode::

    python3 perfbench/serve.py --wal W --rules 0|1 [--trace-out PATH]

The service keeps the ``GKBMSService`` defaults (``batch_window=0``,
``max_batch=8``, admission caps) with ``fsync=commit``.  ``--rules 1``
installs the deduction rule and constraint of the ``author`` workload
and enforces constraints on commit.  ``--trace-out`` wraps the layers'
entry points with timers (:mod:`layers`) and writes what they recorded
when SIGTERM arrives, before the service drains.

The port is printed as ``READY <port>`` once the server accepts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

#: The ``author`` workload's rule and constraint (see README).
RULES = {"informed": "attr(?x, informed, ?y) :- attr(?x, sender, ?y)."}
CONSTRAINTS = [("Document", "HasSender", "Known(self.sender)")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--wal", required=True)
    parser.add_argument("--rules", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    trace = None
    if args.trace_out:
        from layers import LayerTrace, install_server
        trace = LayerTrace()
        install_server(trace)

    from repro.conceptbase import ConceptBase
    from repro.obs.metrics import MetricsRegistry
    from repro.propositions.wal import WalStore
    from repro.server.service import GKBMSService
    from repro.server.tcp import AsyncGKBMSServer

    registry = MetricsRegistry()
    store = WalStore(args.wal, fsync="commit", registry=registry)
    cb = ConceptBase(store=store, registry=registry)
    if args.rules:
        for name, text in RULES.items():
            cb.rules.add_rule(text, name=name, document=False)
        for cls, name, text in CONSTRAINTS:
            cb.consistency.attach_constraint(cls, name, text,
                                             document=False)
    service = GKBMSService(cb, check_consistency=bool(args.rules))
    server = AsyncGKBMSServer(("127.0.0.1", 0), service)

    def on_term(_signum: int, _frame: object) -> None:
        if trace is not None:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(trace.to_json(), handle)
            trace.unwrap_all()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, on_term)
    parent = os.getppid()

    def orphan_watch() -> None:
        # A benchmark killed mid-episode cannot stop its server: exit
        # once this process has been re-parented.
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(3)

    threading.Thread(target=orphan_watch, daemon=True).start()
    print(f"READY {server.port}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.drain()
    return 0


if __name__ == "__main__":
    sys.exit(main())
