"""``evolve``: one lockstep connection driving the served decision ledger.

No rules, no constraints.  The preloaded history holds decisions that
each tell one ``DesignObject`` derived from one or two earlier objects
(its inputs, linked as ``source``/``also``), with some backtracks.  An
episode interleaves, in seeded order:

- ``decide``: a new decision whose inputs are earlier decisions'
  outputs (mostly recent ones, so chains form);
- ``backtrack``: a seeded active decision whose consequent set holds at
  most :data:`MAX_CONSEQUENTS` decisions, followed by a ``history`` and
  an ``instances`` read that must match the model;
- ``replay``: of an active or a retracted decision;
- ``read_instances``: the ``DesignObject`` extent.

Oracle: the benchmark keeps its own model of every decision's inputs
and outputs.  The expected retracted set of a backtrack is its own
breadth-first search over the input→producer edges it chose; history
counts, justification edges and extents must equal the model; a replay
is applicable exactly when every input still exists.
"""

from __future__ import annotations

import copy
import json
import random
from typing import Any, Dict, List, Set

from common import Samples, check
from served import Episode, ServedWorkload

KINDS = ("mapping", "refinement", "choice")
MAX_CONSEQUENTS = 12

SIZES = {
    False: dict(roots=20, preload=240, decide=24, backtrack=6, replay=12,
                instances=6),
    True: dict(roots=4, preload=20, decide=6, backtrack=2, replay=3,
               instances=2),
}


class Model:
    """Decisions (did -> inputs, outputs, active) and live objects."""

    def __init__(self, roots: List[str]) -> None:
        self.objects: Set[str] = set(roots)
        self.order: List[str] = []
        self.inputs: Dict[str, List[str]] = {}
        self.outputs: Dict[str, List[str]] = {}
        self.active: Dict[str, bool] = {}
        self.recent: List[str] = list(roots)

    def record(self, did: str, inputs: List[str], output: str) -> None:
        self.order.append(did)
        self.inputs[did] = inputs
        self.outputs[did] = [output]
        self.active[did] = True
        self.objects.add(output)
        self.recent.append(output)

    def consequents(self, did: str) -> Set[str]:
        """``did`` and every active decision reachable over
        output→input edges (breadth first)."""
        condemned = {did}
        frontier = [did]
        while frontier:
            current = frontier.pop(0)
            made = set(self.outputs[current])
            for later in self.order:
                if later not in condemned and self.active[later] \
                        and made & set(self.inputs[later]):
                    condemned.add(later)
                    frontier.append(later)
        return condemned

    def retract(self, dids: Set[str]) -> None:
        for did in dids:
            self.active[did] = False
            self.objects.difference_update(self.outputs[did])

    def edges(self) -> Set[tuple]:
        out = set()
        for i, earlier in enumerate(self.order):
            made = set(self.outputs[earlier])
            for later in self.order[i + 1:]:
                if made & set(self.inputs[later]):
                    out.add((earlier, later))
        return out

    def pick_inputs(self, rng: random.Random) -> List[str]:
        live = [o for o in self.recent if o in self.objects]
        pool = live[-12:] if rng.random() < 0.7 else live
        count = 2 if rng.random() < 0.4 and len(pool) > 1 else 1
        return rng.sample(pool, count)


def decide_spec(name: str, inputs: List[str], n: int) -> Dict[str, object]:
    lines = [f"TELL {name} IN DesignObject WITH",
             f"  attribute source : {inputs[0]}"]
    roles = {"source": inputs[0]}
    if len(inputs) > 1:
        lines.append(f"  attribute also : {inputs[1]}")
        roles["also"] = inputs[1]
    kind = KINDS[n % len(KINDS)]
    return {
        "decision_class": f"Dec{kind.capitalize()}",
        "kind": kind,
        "tool": f"Tool{n % 4}",
        "inputs": roles,
        "tell": ["\n".join(lines + ["END"])],
        "rationale": f"derive {name} from {', '.join(inputs)}",
    }


class Evolve(ServedWorkload):
    name = "evolve"
    write_cls = "decide"
    read_cls = "history"
    write_op = "decide"

    def build_template(self, path: str) -> None:
        from repro.conceptbase import ConceptBase
        from repro.decisions import DecisionHistory
        from repro.propositions.wal import WalStore

        size = SIZES[self.toy]
        rng = random.Random(self.seed)
        roots = [f"R{i}" for i in range(size["roots"])]
        model = Model(roots)
        store = WalStore(path, fsync="commit")
        cb = ConceptBase(store=store)
        with cb.transaction():
            cb.tell("TELL DesignObject IN SimpleClass WITH\n"
                    "  attribute source : DesignObject\n"
                    "  attribute also : DesignObject\nEND")
            for root in roots:
                cb.tell(f"TELL {root} IN DesignObject END")
        history = DecisionHistory(cb)
        for n in range(size["preload"]):
            if n % 12 == 11:
                victim = self._victim(model, rng)
                if victim is not None:
                    result = history.apply_backtrack(
                        json.dumps({"did": victim}))
                    model.retract(set(result["retracted"]))
                    continue
            name = f"O{n}"
            inputs = model.pick_inputs(rng)
            result = history.apply_decide(
                json.dumps(decide_spec(name, inputs, n), sort_keys=True))
            model.record(result["did"], inputs, name)
        store.checkpoint()
        store.close()
        self.model = model

    @staticmethod
    def _victim(model: Model, rng: random.Random):
        candidates = [d for d in model.order if model.active[d]]
        rng.shuffle(candidates)
        for did in candidates:
            if len(model.consequents(did)) <= MAX_CONSEQUENTS + 1:
                return did
        return None

    def plan(self, ep: int) -> List[str]:
        size = SIZES[self.toy]
        ops = []
        for kind in ("decide", "backtrack", "replay", "instances"):
            ops += [kind] * size[kind]
        random.Random(self.seed * 7919 + ep).shuffle(ops)
        return ops

    def drive(self, client: Any, ep: int, samples: Samples,
              out: Episode) -> None:
        rng = random.Random(self.seed * 104729 + ep)
        model = copy.deepcopy(self.model)
        for n, kind in enumerate(self.plan(ep)):
            if kind == "decide":
                name = f"E{ep}x{n}"
                inputs = model.pick_inputs(rng)
                spec = decide_spec(name, inputs, n)
                out.user_bytes += len(json.dumps(spec, sort_keys=True))
                result = self.timed(out, "decide",
                                    lambda: client.decide(**spec),
                                    samples, "decide")
                check(result["outputs"] == [name],
                      f"decide {name}: outputs {result['outputs']}")
                model.record(result["did"], inputs, name)
            elif kind == "backtrack":
                victim = self._victim(model, rng)
                check(victim is not None, "no decision left to backtrack")
                want = model.consequents(victim)
                result = self.timed(out, "backtrack",
                                    lambda: client.backtrack(victim),
                                    samples, "backtrack")
                check(set(result["retracted"]) == want,
                      f"backtrack {victim}: retracted "
                      f"{sorted(result['retracted'])}, model {sorted(want)}")
                out.reapplied.append(int(result.get("reapplied", 0)))
                model.retract(want)
                self._check_history(client, out, samples, model)
                self._check_instances(client, out, samples, model)
            elif kind == "replay":
                want_active = rng.random() < 0.5
                pool = [d for d in model.order
                        if model.active[d] == want_active]
                did = rng.choice(pool or model.order)
                result = self.timed(out, "replay",
                                    lambda: client.replay(did),
                                    samples, "replay")
                applicable = all(o in model.objects
                                 for o in model.inputs[did])
                check(result["applicable"] is applicable,
                      f"replay {did}: applicable {result['applicable']}, "
                      f"model {applicable}")
                status = "done" if model.active[did] else "retracted"
                check(result["status"] == status,
                      f"replay {did}: status {result['status']} != {status}")
                if model.active[did]:
                    check(result["drift"] == [],
                          f"replay {did}: drift {result['drift']}")
            else:
                self._check_instances(client, out, samples, model)
        self.last_model = model

    def _check_history(self, client: Any, out: Episode, samples: Samples,
                       model: Model) -> None:
        result = self.timed(out, "history", client.history, samples,
                            "history")
        active = sum(model.active.values())
        check(result["recorded"] == len(model.order)
              and result["active"] == active
              and len(result["decisions"]) == len(model.order),
              f"history: {result['recorded']} recorded/{result['active']} "
              f"active, model {len(model.order)}/{active}")
        edges = {(e["from"], e["to"]) for e in result["edges"]}
        check(edges == model.edges(),
              f"history: {len(edges)} edges, model "
              f"{len(model.edges())}")

    def _check_instances(self, client: Any, out: Episode, samples: Samples,
                         model: Model) -> None:
        names = self.timed(out, "instances",
                           lambda: client.instances("DesignObject"),
                           samples, "read_instances")
        check(set(names) == model.objects,
              f"instances: {len(names)} objects, model "
              f"{len(model.objects)}")

    def check_restart(self, client: Any) -> None:
        model = self.last_model
        result = client.history()
        check(result["recorded"] == len(model.order)
              and result["active"] == sum(model.active.values()),
              "after restart, the ledger differs from the model")
        check(set(client.instances("DesignObject")) == model.objects,
              "after restart, the extent differs from the model")
