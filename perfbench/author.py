"""``author``: one designer session over a rule- and constraint-laden base.

One lockstep (protocol v1) connection against a server with the
``informed`` deduction rule installed and the ``HasSender`` constraint
enforced on commit.  The preloaded base holds ``Person`` objects and
documents spread evenly over four ``Document`` subclasses, each with a
seeded ``sender`` and one ``cites`` link to a seeded earlier document.  An episode interleaves, in seeded order:

- ``read``: ``frame`` of a document and ``instances`` of a subclass;
- ``ask``: ``A(d, sender, p)``, ``A(d, informed, p)`` (deduced) and
  ``In(d, C)``, true and false in equal measure;
- ``query``: the rule query ``attr(d, informed, ?y)``;
- ``write``: a checked autocommit ``tell`` of a new document;
- ``txn``: ``begin``, three staged tells, ``commit``, timed as one unit.

Oracle: a client-side model of every told frame.  Frames and extents
must equal it, asks must hold exactly when the model says so, and each
rule query must return exactly the document's told sender.  After the
run, a server restarted from the WAL alone must return every acked
tell.
"""

from __future__ import annotations

import copy
import random
import time
from typing import Any, Dict, List, Set, Tuple

from common import Samples, check
from served import Episode, ServedWorkload

SUBCLASSES = ("Report", "Memo", "Minutes", "Letter")

SCHEMA = [
    "TELL Person IN SimpleClass END",
    "TELL Document IN SimpleClass WITH\n"
    "  attribute sender : Person\n"
    "  attribute cites : Document\nEND",
] + [f"TELL {c} IN SimpleClass ISA Document END" for c in SUBCLASSES]

#: Documents, persons and per-episode op counts (full size, toy size).
SIZES = {
    False: dict(docs=300, persons=40, frame=40, instances=16, ask=24,
                query=16, write=24, txn=8),
    True: dict(docs=40, persons=6, frame=6, instances=3, ask=4,
               query=3, write=4, txn=2),
}
TXN_TELLS = 3


class Doc:
    __slots__ = ("cls", "sender", "cites")

    def __init__(self, cls: str, sender: str, cites: List[str]) -> None:
        self.cls = cls
        self.sender = sender
        self.cites = cites

    def frame(self, name: str) -> str:
        lines = [f"TELL {name} IN {self.cls} WITH",
                 f"  attribute sender : {self.sender}"]
        lines += [f"  attribute cites : {d}" for d in self.cites]
        return "\n".join(lines + ["END"])

    def links(self) -> Set[Tuple[str, str]]:
        return {("sender", self.sender)} | {("cites", d) for d in self.cites}


def parse_rendered(text: str) -> Tuple[str, Set[str], Set[Tuple[str, str]]]:
    """``(name, classes, {(label, target)})`` of a rendered frame —
    parsed here, not with the program's frame parser."""
    lines = [line.strip() for line in text.strip().splitlines()]
    head = lines[0].replace(",", " ").split()
    name = head[1]
    classes: Set[str] = set()
    if "IN" in head:
        after = head[head.index("IN") + 1:]
        for word in after:
            if word in ("ISA", "WITH"):
                break
            classes.add(word)
    links = set()
    for line in lines[1:]:
        if line == "END":
            break
        left, _, target = line.partition(":")
        words = left.split()
        links.add((words[-1], target.strip()))
    return name, classes, links


class Author(ServedWorkload):
    name = "author"
    rules = True

    def build_template(self, path: str) -> None:
        from repro.conceptbase import ConceptBase
        from repro.propositions.wal import WalStore

        size = SIZES[self.toy]
        rng = random.Random(self.seed)
        self.persons = [f"P{i}" for i in range(size["persons"])]
        self.docs: Dict[str, Doc] = {}
        for i in range(size["docs"]):
            cites = [f"D{rng.randrange(i)}"] if i else []
            self.docs[f"D{i}"] = Doc(SUBCLASSES[i % len(SUBCLASSES)],
                                     rng.choice(self.persons), cites)
        store = WalStore(path, fsync="commit")
        cb = ConceptBase(store=store)
        with cb.transaction():
            for frame in SCHEMA:
                cb.tell(frame)
            for person in self.persons:
                cb.tell(f"TELL {person} IN Person END")
            for name, doc in self.docs.items():
                cb.tell(doc.frame(name))
        store.checkpoint()
        store.close()

    # ------------------------------------------------------------------

    def plan(self, ep: int) -> List[str]:
        size = SIZES[self.toy]
        ops = []
        for kind in ("frame", "instances", "ask", "query", "write", "txn"):
            ops += [kind] * size[kind]
        random.Random(self.seed * 7919 + ep).shuffle(ops)
        return ops

    def drive(self, client: Any, ep: int, samples: Samples,
              out: Episode) -> None:
        rng = random.Random(self.seed * 104729 + ep)
        docs = copy.copy(self.docs)
        self.session_docs = docs
        self.episode_told: List[str] = []
        counter = [0]

        def new_doc() -> Tuple[str, Doc]:
            counter[0] += 1
            name = f"A{ep}x{counter[0]}"
            cites = sorted(rng.sample(sorted(docs), 2))
            return name, Doc(SUBCLASSES[counter[0] % len(SUBCLASSES)],
                             rng.choice(self.persons), cites)

        for kind in self.plan(ep):
            if kind == "frame":
                name = rng.choice(sorted(docs))
                text = self.timed(out, "frame", lambda: client.frame(name),
                                  samples, "read")
                got = parse_rendered(text)
                want = (name, {docs[name].cls}, docs[name].links())
                check(got == want, f"frame {name}: {got} != {want}")
            elif kind == "instances":
                cls = rng.choice(SUBCLASSES)
                names = self.timed(out, "instances",
                                   lambda: client.instances(cls),
                                   samples, "read")
                want = sorted(n for n, d in docs.items() if d.cls == cls)
                check(sorted(names) == want,
                      f"instances {cls}: {len(names)} names, "
                      f"model has {len(want)}")
            elif kind == "ask":
                self._ask(client, out, samples, rng, docs)
            elif kind == "query":
                name = rng.choice(sorted(docs))
                answers = self.timed(
                    out, "query",
                    lambda: client.query(f"attr({name}, informed, ?y)"),
                    samples, "query")
                want = [[name, "informed", docs[name].sender]]
                check(answers == want,
                      f"query informed {name}: {answers} != {want}")
            elif kind == "write":
                name, doc = new_doc()
                source = doc.frame(name)
                out.user_bytes += len(source.encode())
                result = self.timed(out, "tell", lambda: client.tell(source),
                                    samples, "write")
                check(result.get("created", 0) > 0, f"tell {name}: {result}")
                docs[name] = doc
                self.episode_told.append(name)
            else:
                self._txn(client, out, samples, new_doc, docs)

    def _ask(self, client: Any, out: Episode, samples: Samples,
             rng: random.Random, docs: Dict[str, Doc]) -> None:
        name = rng.choice(sorted(docs))
        doc = docs[name]
        truth = rng.random() < 0.5
        form = rng.choice(("sender", "informed", "in"))
        if form == "in":
            cls = doc.cls if truth else rng.choice(
                [c for c in SUBCLASSES if c != doc.cls])
            text = f"In({name}, {cls})"
        else:
            person = doc.sender if truth else rng.choice(
                [p for p in self.persons if p != doc.sender])
            text = f"A({name}, {form}, {person})"
        holds = self.timed(out, "ask", lambda: client.ask(text), samples,
                           "ask")
        check(holds is truth, f"ask {text}: {holds} != {truth}")

    def _txn(self, client: Any, out: Episode, samples: Samples, new_doc,
             docs: Dict[str, Doc]) -> None:
        """``begin``, the staged tells and ``commit``, timed as one."""
        told = [new_doc() for _ in range(TXN_TELLS)]
        start = time.perf_counter()
        self.timed(out, "begin", client.begin)
        for staged, (name, doc) in enumerate(told, 1):
            source = doc.frame(name)
            out.user_bytes += len(source.encode())
            result = self.timed(out, "tell_staged",
                                lambda: client.tell(source))
            check(result.get("staged") == staged,
                  f"staged tell {staged}: {result}")
        result = self.timed(out, "commit", client.commit)
        samples.add("txn", time.perf_counter() - start)
        check(result.get("created", 0) > 0, f"commit: {result}")
        for name, doc in told:
            docs[name] = doc
            self.episode_told.append(name)

    # ------------------------------------------------------------------

    def check_restart(self, client: Any) -> None:
        docs = self.session_docs
        for cls in SUBCLASSES:
            want = sorted(n for n, d in docs.items() if d.cls == cls)
            check(sorted(client.instances(cls)) == want,
                  f"after restart, instances {cls} differ from the model")
        for name in self.episode_told:
            got = parse_rendered(client.frame(name))
            check(got == (name, {docs[name].cls}, docs[name].links()),
                  f"after restart, acked tell {name} reads back as {got}")
