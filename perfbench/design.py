"""``design``: seeded GKBMS histories, in process, no server, no WAL.

Each episode builds a fresh :class:`~repro.core.gkbms.GKBMS` (one
``setup_s`` sample) with a seeded TaxisDL forest, then runs a fixed
list of steps.  For every hierarchy, in seeded order: map it (move-down,
distribute or single-relation, each strategy for a third of the
hierarchies, which third seeded); normalise the one relation with
a set-valued field; read the normalised relation's causal chain; map
its transaction.  After every fourth hierarchy, the previous
hierarchy's mapping is selectively backtracked (taking its
normalisation with it) and replayed.

Every hierarchy has a stem of its own, so the Normalizer's derived
names never meet — except in the fixed hierarchies ``MemA`` and
``MemB``: their relations share the stem ``Mem`` and the field
``members``, so the second normalisation derives ``MemMemberRel`` a
second time and fails.  That step is attempted once per episode and
counted as failed; it does not depend on the seed.  Once the tool
derives unique names, the step succeeds and counts as any other.

Oracle: a backtrack must retract exactly the mapping and the
normalisation that consumed its output (the benchmark's own record of
which step fed which), and their outputs must be gone; a replay must
re-create the mapping's outputs; causal chains must lead back through
the decisions the benchmark made; at the end every active decision's
outputs exist and the module loads into ``dbpl_engine`` with every
constructor evaluating.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from typing import Any, Dict, List

from common import (OracleError, Samples, check, median,
                    self_peak_rss_mb)
from layers import EXECUTE_LABELS, LayerTrace, install_core

STRATEGIES = {
    "DecMoveDown": "MoveDownMapper",
    "DecDistribute": "DistributeMapper",
    "DecSingleRelation": "SingleRelationMapper",
}
SET_FIELDS = ("members", "parts", "items", "notes", "links", "holders")
SUFFIXES = ("Alpha", "Beta", "Gamma", "Delta", "Omega", "Sigma")
CONSONANTS = "BDFGKLNPRSTVZ"
VOWELS = "aeiou"
COLLIDING = ("MemA", "MemB")

SIZES = {False: dict(hierarchies=18), True: dict(hierarchies=6)}
COUNTERS = ("proposition.tells", "proposition.retracts", "proposition.clips")


class Hierarchy:
    def __init__(self, root: str, set_sub: str, set_field: str,
                 other_sub: str, strategy: str) -> None:
        self.root = root
        self.set_sub = set_sub
        self.set_field = set_field
        self.other_sub = other_sub
        self.strategy = strategy

    def taxisdl(self) -> str:
        return (f"entity class {self.root} with\n  owner : {self.root}\nend\n"
                f"entity class {self.set_sub} isa {self.root} with\n"
                f"  {self.set_field} : set of {self.root}\nend\n"
                f"entity class {self.other_sub} isa {self.root} with\n"
                f"  detail : {self.root}\nend\n"
                f"transaction class Touch{self.root} with\n"
                f"  in it : {self.root}\nend\n")


class DesignEpisode:
    """What one design episode measured besides the samples."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.rss_mb = 0.0
        self.steps = 0
        self.step_s = 0.0
        self.props = 0.0
        self.trace: Dict[str, Any] = {}
        #: op class -> client-side step time (ms).
        self.class_ms: Dict[str, float] = defaultdict(float)


class Design:
    name = "design"
    write_cls = "map"
    read_cls = "read"

    def __init__(self, seed: int, work: Any, toy: bool = False) -> None:
        self.seed = seed
        self.toy = toy
        rng = random.Random(seed)
        stems = set()
        while len(stems) < SIZES[toy]["hierarchies"]:
            stem = (rng.choice(CONSONANTS) + rng.choice(VOWELS)
                    + rng.choice(CONSONANTS).lower())
            if stem != "Mem":
                stems.add(stem)
        # Each strategy maps the same number of hierarchies; the seed
        # decides which.
        stems = sorted(stems)
        rng.shuffle(stems)
        strategies = sorted(STRATEGIES)
        self.hierarchies = []
        for i, stem in enumerate(stems):
            first, second = rng.sample(SUFFIXES, 2)
            self.hierarchies.append(Hierarchy(
                stem, stem + first, rng.choice(SET_FIELDS), stem + second,
                strategies[i % len(strategies)]))
        self.colliding = [Hierarchy(root, root + "Item", "members",
                                    root + "Other", "DecDistribute")
                          for root in COLLIDING]
        self.forest = "\n".join(h.taxisdl() for h in
                                self.hierarchies + self.colliding)

    # -- one step ---------------------------------------------------------

    def _step(self, samples: Samples, cls: str, fn, *args, **kwargs):
        self.trace.op = cls
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        samples.add(cls, elapsed)
        self.out.class_ms[cls] += elapsed * 1000.0
        self.out.steps += 1
        self.out.step_s += elapsed
        return result

    def _map(self, samples: Samples, h: Hierarchy):
        record = self._step(samples, "map", self.gkbms.execute, h.strategy,
                            {"hierarchy": h.root}, tool=STRATEGIES[h.strategy])
        self.made_from[record.did] = [h.root]
        return record

    def _set_relation(self, record) -> str:
        module = self.gkbms.module
        found = [name for name in record.outputs.get("relations", [])
                 if any(f.type_name.upper().startswith("SET OF ")
                        for f in module.relations[name].fields)]
        check(len(found) == 1, f"{record.did}: set-valued relations {found}")
        return found[0]

    def _normalize(self, samples: Samples, h: Hierarchy, mapping):
        relation = self._set_relation(mapping)
        record = self._step(samples, "normalize", self.gkbms.execute,
                            "DecNormalize", {"relation": relation},
                            tool="Normalizer", params={"field": h.set_field})
        self.made_from[record.did] = [relation]
        return record

    # -- the episode --------------------------------------------------------

    def episode(self, ep: int, samples: Samples,
                traced: bool = False) -> DesignEpisode:
        from repro.core.gkbms import GKBMS

        out = self.out = DesignEpisode()
        self.trace = LayerTrace()
        if traced:
            install_core(self.trace)
        try:
            start = time.perf_counter()
            gkbms = self.gkbms = GKBMS()
            gkbms.register_standard_library()
            gkbms.import_design(self.forest)
            out.setup_s = time.perf_counter() - start
            before = gkbms.processor.registry.snapshot("proposition")
            self._run_steps(ep, samples)
            after = gkbms.processor.registry.snapshot("proposition")
            out.props = sum(after.get(k, 0) - before.get(k, 0)
                            for k in COUNTERS)
            self._final_check()
        finally:
            self.trace.unwrap_all()
        out.trace = self.trace.to_json()
        out.rss_mb = self_peak_rss_mb()
        return out

    def _run_steps(self, ep: int, samples: Samples) -> None:
        gkbms = self.gkbms
        order = list(self.hierarchies)
        random.Random(self.seed * 7919 + ep).shuffle(order)
        self.made_from: Dict[str, List[str]] = {}
        mappings: List[Any] = []
        for i, h in enumerate(order):
            mapping = self._map(samples, h)
            mappings.append(mapping)
            norm = self._normalize(samples, h, mapping)
            detail = [n for n in norm.outputs["relations"]
                      if not n.endswith("2")][0]
            chain = self._step(samples, "read",
                               gkbms.navigator().causal_chain, detail)
            want = [(norm.did, self.made_from[norm.did][0]),
                    (mapping.did, h.root)]
            check(chain == want, f"causal chain of {detail}: {chain} "
                  f"!= {want}")
            self._step(samples, "map_txn", gkbms.execute,
                       "DecMapTransaction",
                       {"transaction": f"Touch{h.root}"},
                       tool="TransactionMapper")
            if i == len(order) // 2:
                self._colliding(samples)
            if i % 4 == 3:
                self._backtrack_replay(samples, mappings[i - 1])

    def _colliding(self, samples: Samples) -> None:
        first, second = self.colliding
        self._normalize(samples, first, self._map(samples, first))
        mapping = self._map(samples, second)
        try:
            self._normalize(samples, second, mapping)
        except Exception as exc:  # the known fault: a duplicate name
            check("duplicate" in str(exc), f"unexpected failure: {exc}")
            samples.fail("normalize")
            self.out.steps += 1

    def _consumers(self, did: str) -> set:
        """``did`` and the active decisions fed by its outputs."""
        records = self.gkbms.decisions.records
        condemned = {did}
        made = set(records[did].all_outputs())
        for other in self.gkbms.decisions.order:
            rec = records[other]
            if other not in condemned and not rec.is_retracted \
                    and made & set(self.made_from.get(other, [])):
                condemned.add(other)
                made |= set(rec.all_outputs())
        return condemned

    def _backtrack_replay(self, samples: Samples, mapping) -> None:
        proc = self.gkbms.processor
        want = self._consumers(mapping.did)
        gone = [name for did in want
                for name in self.gkbms.decisions.records[did].all_outputs()]
        report = self._step(samples, "backtrack",
                            self.gkbms.backtracker.retract, mapping.did)
        check(set(report.retracted_decisions) == want,
              f"backtrack {mapping.did}: {report.retracted_decisions} != "
              f"{sorted(want)}")
        left = [n for n in gone if proc.exists(n)
                or n in self.gkbms.module.relations]
        check(not left, f"backtrack {mapping.did}: outputs still there: "
              f"{left}")
        outcome = self._step(samples, "replay", self.gkbms.replayer.replay,
                             mapping)
        check(outcome.status == "replayed",
              f"replay {mapping.did}: {outcome.status} {outcome.reason}")
        again = self.gkbms.decisions.records[outcome.new_decision]
        self.made_from[again.did] = list(mapping.inputs.values())
        missing = [n for n in again.all_outputs() if not proc.exists(n)]
        check(not missing, f"replay {mapping.did}: missing {missing}")

    def _final_check(self) -> None:
        gkbms = self.gkbms
        proc = gkbms.processor
        for did in gkbms.decisions.order:
            record = gkbms.decisions.records[did]
            if record.is_retracted:
                continue
            missing = [n for n in record.all_outputs() if not proc.exists(n)]
            check(not missing, f"active {did} lost outputs {missing}")
        database = gkbms.build_database()
        for name in sorted(database.constructors):
            try:
                database.rows(name)
            except Exception as exc:  # noqa: BLE001 - the oracle's verdict
                raise OracleError(f"constructor {name} does not evaluate: "
                                  f"{exc}") from exc

    # -- reporting --------------------------------------------------------

    def restart_check(self) -> None:
        """Nothing is durable in process; nothing to restart."""

    def describe(self, episodes: List[DesignEpisode],
                 samples: Samples) -> List[str]:
        steps = sum(e.steps for e in episodes)
        busy = sum(e.step_s for e in episodes)
        return [
            "setup_s samples: " + " ".join(
                f"{e.setup_s:.4f}" for e in episodes[:12]),
            f"rss_mb median: {median([e.rss_mb for e in episodes]):.2f}",
            f"throughput_ops_s: {steps / busy if busy else 0.0:.1f} "
            f"steps/s of step time ({steps} steps)",
        ]

    def per_layer(self, traced: List[DesignEpisode],
                  untraced: List[DesignEpisode]) -> Dict[str, float]:
        from perlayer import TraceSum, ratio

        trace = TraceSum()
        for ep in traced:
            trace.add(ep.trace)
        steps = sum(e.steps for e in traced)
        metrics = {
            "core.map_ms": trace.mean_elapsed("core.map"),
            "core.normalize_ms": trace.mean_elapsed("core.normalize"),
            "core.map_txn_ms": trace.mean_elapsed("core.map_txn"),
            "core.retract_ms": trace.mean_elapsed("core.retract"),
            "core.replay_ms": trace.mean_elapsed("core.replay"),
            "core.props_per_step": ratio(sum(e.props for e in traced),
                                          steps),
            "deduction.materialise_ms": trace.mean_elapsed(
                "deduction.materialise"),
            "deduction.materialisations_per_op": ratio(
                trace.get("deduction.materialise")[0], steps),
        }
        # The budget check: a mapping step's time less the self times
        # of the calls under ``GKBMS.execute`` (the tool, the artefact
        # snapshot, applicability, documentation, obligations,
        # deduction); what the
        # execute wrapper keeps for itself is claimed by no layer.
        maps = trace.get("core.map", "map")
        if maps[0]:
            claimed = sum(cell[2] for label, cell in trace.cells["map"]
                          .items() if label not in EXECUTE_LABELS)
            client = sum(e.class_ms["map"] for e in traced)
            metrics["trace.unattributed_ms"] = (client - claimed) / maps[0]
        return metrics
