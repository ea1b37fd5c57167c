"""Immutable knowledge-graph storage with directional adjacency and question scoping.

Entities and relations get dense integer ids in first-seen order; labels live
in side tables. Triples are a set: duplicates are collapsed at load time (the
collapse count is logged). A graph restricted to a question scope shares the
parent's vocabulary and triple ids, so ids stay stable across views.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

logger = logging.getLogger(__name__)

FORWARD = "f"
BACKWARD = "b"


class KGFormatError(ValueError):
    """A triple or question record that cannot be parsed; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class ReasoningPath:
    """Ordered sequence of connected triples with per-step traversal direction.

    A step traversed head->tail is forward ("f"), tail->head is backward ("b").
    The exit entity of step i must equal the entry entity of step i+1; this is
    checked against a graph via :meth:`validate`, not at construction.
    """

    triple_ids: tuple[int, ...]
    orientations: tuple[str, ...]

    def __post_init__(self):
        if not self.triple_ids:
            raise ValueError("a reasoning path needs at least one step")
        if len(self.triple_ids) != len(self.orientations):
            raise ValueError("one orientation flag per step required")
        for o in self.orientations:
            if o not in (FORWARD, BACKWARD):
                raise ValueError(f"unknown orientation flag {o!r}")

    def __len__(self) -> int:
        return len(self.triple_ids)

    def key(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        return (self.triple_ids, self.orientations)

    def source(self, g: "KnowledgeGraph") -> int:
        return step_entry(g.triple(self.triple_ids[0]), self.orientations[0])

    def terminal(self, g: "KnowledgeGraph") -> int:
        return step_exit(g.triple(self.triple_ids[-1]), self.orientations[-1])

    def entity_sequence(self, g: "KnowledgeGraph") -> list[int]:
        seq = [self.source(g)]
        for tid, orient in zip(self.triple_ids, self.orientations):
            seq.append(step_exit(g.triple(tid), orient))
        return seq

    def relation_path(self, g: "KnowledgeGraph") -> tuple[tuple[int, str], ...]:
        """Ordered (relation id, orientation) pairs underlying this path."""
        return tuple(
            (g.triple(tid).relation, orient)
            for tid, orient in zip(self.triple_ids, self.orientations)
        )

    def triples(self, g: "KnowledgeGraph") -> list[Triple]:
        return [g.triple(tid) for tid in self.triple_ids]

    def validate(self, g: "KnowledgeGraph") -> None:
        cur = self.source(g)
        for tid, orient in zip(self.triple_ids, self.orientations):
            tr = g.triple(tid)
            if step_entry(tr, orient) != cur:
                raise ValueError(f"broken connectivity at triple {tid}")
            cur = step_exit(tr, orient)


def step_entry(tr: Triple, orient: str) -> int:
    return tr.head if orient == FORWARD else tr.tail


def step_exit(tr: Triple, orient: str) -> int:
    return tr.tail if orient == FORWARD else tr.head


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    query_entities: frozenset[int]
    answer_entities: frozenset[int]
    scope: frozenset[int] | None = None  # triple ids; None means the whole graph


@dataclass
class KnowledgeGraph:
    """Triple store plus directional adjacency indices.

    ``triples`` is the full id-indexed storage; ``triple_ids`` lists the ids
    visible in this graph (a scoped view keeps the parent's storage and lists
    a subset). Iteration order over visible triples is load order.
    ``triple_index`` maps each stored triple to its id and is shared by views.
    """

    entities: list[str]
    relations: list[str]
    triples: list[Triple]
    triple_ids: tuple[int, ...]
    out_index: dict[int, list[int]]
    in_index: dict[int, list[int]]
    entity_ids: dict[str, int] = field(repr=False)
    relation_ids: dict[str, int] = field(repr=False)
    triple_index: dict[Triple, int] = field(repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_triples(
        cls,
        entities: list[str],
        relations: list[str],
        triples: list[Triple],
        triple_index: dict[Triple, int],
    ) -> "KnowledgeGraph":
        """Graph over distinct ``triples``; ``triple_index`` maps each to its position."""
        tids = tuple(range(len(triples)))
        out_index, in_index = _build_indices(triples, tids)
        return cls(
            entities=entities,
            relations=relations,
            triples=triples,
            triple_ids=tids,
            out_index=out_index,
            in_index=in_index,
            entity_ids={lab: i for i, lab in enumerate(entities)},
            relation_ids={lab: i for i, lab in enumerate(relations)},
            triple_index=triple_index,
        )

    def restrict(self, scope: Iterable[int]) -> "KnowledgeGraph":
        """View of this graph limited to the given triple ids (shared vocabulary)."""
        tids = sorted(set(scope))
        for tid in tids:
            if tid < 0 or tid >= len(self.triples):
                raise KeyError(f"scope references unknown triple id {tid}")
        visible = set(self.triple_ids)
        tids = tuple(t for t in tids if t in visible)
        out_index, in_index = _build_indices(self.triples, tids)
        return KnowledgeGraph(
            entities=self.entities,
            relations=self.relations,
            triples=self.triples,
            triple_ids=tids,
            out_index=out_index,
            in_index=in_index,
            entity_ids=self.entity_ids,
            relation_ids=self.relation_ids,
            triple_index=self.triple_index,
        )

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.triple_ids)

    def iter_triples(self) -> Iterator[tuple[int, Triple]]:
        for tid in self.triple_ids:
            yield tid, self.triples[tid]

    def triple(self, tid: int) -> Triple:
        return self.triples[tid]

    def has_entity(self, e: int) -> bool:
        return 0 <= e < len(self.entities)

    def entity_label(self, e: int) -> str:
        return self.entities[e]

    def relation_label(self, r: int) -> str:
        return self.relations[r]

    def entity_id(self, label: str) -> int | None:
        return self.entity_ids.get(label)

    def triple_id_of(self, head: int, relation: int, tail: int) -> int | None:
        """Id of the triple if it is visible in this graph, else ``None``."""
        tid = self.triple_index.get((head, relation, tail))
        if tid is None or len(self.triple_ids) == len(self.triples):  # every stored id visible
            return tid
        return tid if tid in self.out_index.get(head, ()) else None

    def labels(self, tr: Triple) -> list[str]:
        """The ``[head, relation, tail]`` labels of a triple, as artifacts record it."""
        return [self.entities[tr.head], self.relations[tr.relation], self.entities[tr.tail]]

    def resolve(self, head: str, relation: str, tail: str) -> int | None:
        """Id of the visible triple with these labels, or ``None``."""
        h, r, t = self.entity_ids.get(head), self.relation_ids.get(relation), self.entity_ids.get(tail)
        if h is None or r is None or t is None:
            return None
        return self.triple_id_of(h, r, t)

    def neighbors(self, e: int, direction: str = "both") -> list[int]:
        """Triple ids touching entity ``e``, in load order.

        ``out`` matches the head, ``in`` the tail, ``both`` either; a
        self-loop appears once in ``both``.
        """
        if not self.has_entity(e):
            raise KeyError(f"unknown entity id {e}")
        if direction == "out":
            return list(self.out_index.get(e, ()))
        if direction == "in":
            return list(self.in_index.get(e, ()))
        if direction == "both":
            merged = set(self.out_index.get(e, ())) | set(self.in_index.get(e, ()))
            return sorted(merged)
        raise ValueError(f"unknown direction {direction!r}")

    def steps(self, e: int) -> list[tuple[int, str]]:
        """``(triple id, orientation leaving e)`` per triple touching ``e``, in id order.

        A self-loop appears once, as forward.
        """
        return [
            (tid, FORWARD if self.triples[tid].head == e else BACKWARD)
            for tid in self.neighbors(e, "both")
        ]


def _build_indices(
    triples: list[Triple], tids: Iterable[int]
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    out_index: dict[int, list[int]] = {}
    in_index: dict[int, list[int]] = {}
    for tid in tids:
        tr = triples[tid]
        out_index.setdefault(tr.head, []).append(tid)
        in_index.setdefault(tr.tail, []).append(tid)
    return out_index, in_index


def hop_distances(g: KnowledgeGraph, anchors: Iterable[int], direction: str = "both") -> dict[int, int]:
    """Multi-source BFS hop distance from ``anchors`` to every entity they reach in ``g``.

    ``out`` follows edge direction, ``in`` runs against it and ``both`` ignores it.
    """
    # (index, position in a Triple of the entity at the far end) pairs to follow
    walks = {"out": ((g.out_index, 2),), "in": ((g.in_index, 0),)}
    walks["both"] = walks["out"] + walks["in"]
    if direction not in walks:
        raise ValueError(f"unknown direction {direction!r}")
    triples = g.triples
    dist = dict.fromkeys(anchors, 0)
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        for index, far in walks[direction]:
            for tid in index.get(u, ()):
                v = triples[tid][far]
                if v not in dist:
                    dist[v] = d
                    queue.append(v)
    return dist


def working_graph(g: KnowledgeGraph, q: Question) -> KnowledgeGraph:
    """The graph a question operates on: ``q.scope`` when present, else ``g``."""
    if q.scope is None:
        return g
    return g.restrict(q.scope)


# -- loading / serialization -----------------------------------------------


def _decode_lines(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[str]:
    for raw in source:
        yield raw.decode("utf-8") if isinstance(raw, bytes) else raw


def load_kg(source: IO[bytes] | IO[str] | Iterable[str], format: str = "tsv") -> KnowledgeGraph:
    """Load a graph from TSV (``head<TAB>relation<TAB>tail``) or JSONL (``{h,r,t}``).

    Ids are assigned in first-seen order; duplicate triples are collapsed and
    the collapse count logged. Malformed records raise :class:`KGFormatError`
    with the offending line number. An empty stream yields an empty graph.
    """
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown triple format {format!r}")

    entities: list[str] = []
    relations: list[str] = []
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    triples: list[Triple] = []
    triple_index: dict[Triple, int] = {}
    duplicates = 0

    def ent(label: str) -> int:
        if label not in entity_ids:
            entity_ids[label] = len(entities)
            entities.append(label)
        return entity_ids[label]

    def rel(label: str) -> int:
        if label not in relation_ids:
            relation_ids[label] = len(relations)
            relations.append(label)
        return relation_ids[label]

    for lineno, line in enumerate(_decode_lines(source), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if format == "tsv":
            parts = line.split("\t")
            if len(parts) != 3:
                raise KGFormatError(
                    f"expected 3 tab-separated fields, got {len(parts)}", lineno
                )
            h_lab, r_lab, t_lab = (p.strip() for p in parts)
        else:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise KGFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
            if not isinstance(obj, dict) or not {"h", "r", "t"} <= obj.keys():
                raise KGFormatError("expected an object with keys h, r, t", lineno)
            h_lab, r_lab, t_lab = str(obj["h"]), str(obj["r"]), str(obj["t"])
            # graph.tsv must reload to the same ids: its reader splits on tabs
            # and line breaks and strips each field
            for lab in (h_lab, r_lab, t_lab):
                if lab != lab.strip() or any(c in lab for c in "\t\n\r"):
                    raise KGFormatError(
                        f"label {lab!r} has surrounding whitespace, a tab or a line break", lineno
                    )
        if not h_lab or not r_lab or not t_lab:
            raise KGFormatError("empty head, relation, or tail", lineno)
        tr = Triple(ent(h_lab), rel(r_lab), ent(t_lab))
        if tr in triple_index:
            duplicates += 1
            continue
        triple_index[tr] = len(triples)
        triples.append(tr)

    if duplicates:
        logger.info("collapsed %d duplicate triples at load", duplicates)
    return KnowledgeGraph.from_triples(entities, relations, triples, triple_index)


def to_tsv(g: KnowledgeGraph, sink: IO[str]) -> None:
    """Write visible triples as TSV in load order; reloading reproduces ids."""
    for _, tr in g.iter_triples():
        sink.write("\t".join(g.labels(tr)) + "\n")


def load_questions(
    source: IO[bytes] | IO[str] | Iterable[str], g: KnowledgeGraph
) -> tuple[list[Question], dict[str, list[str]]]:
    """Load question records and resolve entity labels against the vocabulary.

    Records are JSONL objects ``{id, question, question_entities,
    answer_entities, scope?}`` where scope is a list of ``[h, r, t]`` label
    triples. Unresolvable labels are dropped and reported per question id in
    the returned mapping.
    """
    questions: list[Question] = []
    unresolved: dict[str, list[str]] = {}

    for lineno, line in enumerate(_decode_lines(source), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise KGFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
        if not isinstance(obj, dict) or "id" not in obj or "question" not in obj:
            raise KGFormatError("question record needs 'id' and 'question'", lineno)
        qid = str(obj["id"])
        problems: list[str] = []

        def resolve(labels: Iterable[str]) -> frozenset[int]:
            ids = []
            for lab in labels:
                eid = g.entity_id(str(lab))
                if eid is None:
                    problems.append(str(lab))
                else:
                    ids.append(eid)
            return frozenset(ids)

        query = resolve(obj.get("question_entities", []))
        answers = resolve(obj.get("answer_entities", []))
        scope: frozenset[int] | None = None
        if "scope" in obj and obj["scope"] is not None:
            tids = []
            for item in obj["scope"]:
                h, r, t = (str(x) for x in item)
                tid = g.resolve(h, r, t)
                if tid is None:
                    problems.append(f"{h}|{r}|{t}")
                else:
                    tids.append(tid)
            scope = frozenset(tids)
        if problems:
            unresolved[qid] = problems
            logger.warning("question %s: unresolved labels %s", qid, problems)
        questions.append(Question(qid, str(obj["question"]), query, answers, scope))

    return questions, unresolved
