"""Re-measure the known faults the workloads keep visible, in process.

Usage (from the root of a checkout)::

    python3 perfbench/faults.py

(a) decide cost against ledger size: every decide rebuilds the whole
    justification graph, so the cost grows with the square of the
    ledger;
(b) checked tell and rule query cost against base size: deduction
    rescans stored links on every attribute retrieval;
(c) the Normalizer's derived detail-relation name: two relations with
    the same three-letter stem and set-valued field collide.

Prints one line per measurement.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def decide_ms(ledger: int, probes: int = 5) -> float:
    from repro.conceptbase import ConceptBase
    from repro.decisions import DecisionHistory

    cb = ConceptBase()
    cb.tell("TELL DesignObject IN SimpleClass WITH\n"
            "  attribute source : DesignObject\nEND")
    cb.tell("TELL R0 IN DesignObject END")
    history = DecisionHistory(cb)

    def decide(n: int) -> float:
        spec = {"decision_class": "DecMapping", "kind": "mapping",
                "inputs": {"source": f"O{n - 1}" if n else "R0"},
                "tell": [f"TELL O{n} IN DesignObject WITH\n"
                         f"  attribute source : "
                         f"{f'O{n - 1}' if n else 'R0'}\nEND"]}
        start = time.perf_counter()
        history.apply_decide(json.dumps(spec))
        return (time.perf_counter() - start) * 1000.0

    for n in range(ledger):
        decide(n)
    return statistics.median(decide(ledger + i) for i in range(probes))


def tell_query_ms(docs: int, probes: int = 5) -> tuple:
    from repro.conceptbase import ConceptBase

    cb = ConceptBase()
    cb.tell("TELL Person IN SimpleClass END")
    cb.tell("TELL Document IN SimpleClass WITH\n"
            "  attribute sender : Person\nEND")
    with cb.transaction():
        for i in range(20):
            cb.tell(f"TELL P{i} IN Person END")
        for i in range(docs):
            cb.tell(f"TELL D{i} IN Document WITH\n"
                    f"  attribute sender : P{i % 20}\nEND")
    cb.rules.add_rule("attr(?x, informed, ?y) :- attr(?x, sender, ?y).",
                      name="informed", document=False)
    cb.consistency.attach_constraint("Document", "HasSender",
                                     "Known(self.sender)", document=False)
    cb.enforce_on_commit()
    tells, queries = [], []
    for i in range(probes):
        start = time.perf_counter()
        with cb.transaction():
            cb.tell(f"TELL N{i} IN Document WITH\n"
                    f"  attribute sender : P{i}\nEND")
        tells.append((time.perf_counter() - start) * 1000.0)
        start = time.perf_counter()
        cb.query(f"attr(D{i}, informed, ?y)")
        queries.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(tells), statistics.median(queries)


def normalizer_collision() -> str:
    from repro.core.gkbms import GKBMS

    gkbms = GKBMS()
    gkbms.register_standard_library()
    gkbms.import_design(
        "entity class MemA with\n  owner : MemA\nend\n"
        "entity class MemAItem isa MemA with\n  members : set of MemA\nend\n"
        "entity class MemB with\n  owner : MemB\nend\n"
        "entity class MemBItem isa MemB with\n  members : set of MemB\nend\n")
    for root in ("MemA", "MemB"):
        gkbms.execute("DecDistribute", {"hierarchy": root},
                      tool="DistributeMapper")
    gkbms.execute("DecNormalize", {"relation": "MemAItemRel"},
                  tool="Normalizer")
    try:
        gkbms.execute("DecNormalize", {"relation": "MemBItemRel"},
                      tool="Normalizer")
    except Exception as exc:  # noqa: BLE001 - the fault being shown
        return f"fails: {exc}"
    return "succeeds (fault mended)"


def main() -> int:
    for size in (10, 250, 500, 1000):
        print(f"(a) decide with {size:5d} decisions in the ledger: "
              f"{decide_ms(size):8.2f} ms", flush=True)
    for size in (100, 500, 1500):
        tell, query = tell_query_ms(size)
        print(f"(b) base of {size:5d} documents: checked tell "
              f"{tell:7.2f} ms, rule query {query:7.2f} ms", flush=True)
    print(f"(c) normalising MemBItemRel after MemAItemRel "
          f"{normalizer_collision()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
