"""Immutable knowledge-graph storage with directional adjacency and question scoping.

Entities and relations get dense integer ids in first-seen order; labels live
in side tables. Triples are a set: duplicates are collapsed at load time (the
collapse count is logged). A graph restricted to a question scope shares the
parent's vocabulary and triple ids, so ids stay stable across views.
The loading section owns the artifact format: :func:`read_jsonl`,
:func:`write_jsonl` and :func:`published` are the only reader, writer and publisher.
"""

from __future__ import annotations

import json
import logging
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar

from .config import json_field

logger = logging.getLogger(__name__)
T = TypeVar("T")

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
        if not self._shows_every_triple():
            visible = set(self.triple_ids)
            tids = [t for t in tids if t in visible]
        tids = tuple(tids)
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

    def _shows_every_triple(self) -> bool:
        return len(self.triple_ids) == len(self.triples)

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
        if tid is None or self._shows_every_triple():
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


def _decode_lines(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each line; a line of bytes that is not UTF-8 is a KGFormatError."""
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise KGFormatError(f"not UTF-8: {exc.reason}", lineno) from None
        yield lineno, raw


class _Record(dict):
    """A JSONL object that remembers the last field read from it, to name it in a parse error."""

    last_key: str | None = None

    def __getitem__(self, key):
        self.last_key = key
        return super().__getitem__(key)


def read_jsonl(source: IO[bytes] | IO[str] | Iterable[str], parse: Callable[[dict], T]) -> list[T]:
    """``parse(record)`` for each JSON object line of ``source``; blank lines are skipped.

    A line that is not UTF-8 or not a JSON object, or a record ``parse`` rejects (``KeyError``,
    ``TypeError``, ``ValueError``, a line-less :class:`KGFormatError`), raises
    :class:`KGFormatError` naming the line.
    """
    out = []
    for lineno, line in _decode_lines(source):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise KGFormatError(f"invalid JSON: {exc.msg}", lineno) from exc
        if not isinstance(obj, dict):
            raise KGFormatError(f"expected a JSON object, got {type(obj).__name__}", lineno)
        rec = _Record(obj)
        try:
            out.append(parse(rec))
        except KGFormatError as exc:
            if exc.line is not None:
                raise
            raise KGFormatError(str(exc), lineno) from exc
        except KeyError as exc:
            raise KGFormatError(f"missing field {exc}", lineno) from exc
        except (TypeError, ValueError) as exc:
            raise KGFormatError(f"field {rec.last_key!r}: {exc}", lineno) from exc
    return out


def write_jsonl(sink: IO[str], records: Iterable[dict]) -> None:
    """One sorted-key JSON object per line, non-ASCII text unescaped."""
    for rec in records:
        sink.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")


@contextmanager
def published(path: str | Path) -> Iterator[IO[str]]:
    """A UTF-8 text sink (line endings as written) that replaces ``path`` when the block completes.

    It writes a temporary sibling and renames it over ``path``; on an exception the
    sibling is removed and ``path`` stays as it was, so no reader sees a partial file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as sink:
            yield sink
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _tsv_rows(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[tuple[str, ...]]:
    for lineno, line in _decode_lines(source):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise KGFormatError(f"expected 3 tab-separated fields, got {len(parts)}", lineno)
        row = tuple(p.strip() for p in parts)
        if not all(row):
            raise KGFormatError("empty head, relation, or tail", lineno)
        yield row


def _jsonl_row(obj: dict) -> tuple[str, ...]:
    row = json_field(obj, "h", str), json_field(obj, "r", str), json_field(obj, "t", str)
    # graph.tsv must reload to the same ids: its reader splits on tabs and
    # line breaks and strips each field
    for lab in row:
        if lab != lab.strip() or any(c in lab for c in "\t\n\r"):
            raise KGFormatError(f"label {lab!r} has surrounding whitespace, a tab or a line break")
    if not all(row):
        raise KGFormatError("empty head, relation, or tail")
    return row


def load_kg(source: IO[bytes] | IO[str] | Iterable[str], format: str = "tsv") -> KnowledgeGraph:
    """Load a graph from TSV (``head<TAB>relation<TAB>tail``) or JSONL (``{h,r,t}``).

    Ids are assigned in first-seen order; duplicate triples are collapsed and
    the collapse count logged. Malformed records raise :class:`KGFormatError`
    with the offending line number. An empty stream yields an empty graph.
    """
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown triple format {format!r}")

    entity_ids: dict[str, int] = {}  # label -> id; insertion order is id order
    relation_ids: dict[str, int] = {}
    triples: list[Triple] = []
    triple_index: dict[Triple, int] = {}
    duplicates = 0
    rows = _tsv_rows(source) if format == "tsv" else read_jsonl(source, _jsonl_row)
    for h_lab, r_lab, t_lab in rows:
        h = entity_ids.setdefault(h_lab, len(entity_ids))
        r = relation_ids.setdefault(r_lab, len(relation_ids))
        tr = Triple(h, r, entity_ids.setdefault(t_lab, len(entity_ids)))
        if tr in triple_index:
            duplicates += 1
            continue
        triple_index[tr] = len(triples)
        triples.append(tr)

    if duplicates:
        logger.info("collapsed %d duplicate triples at load", duplicates)
    return KnowledgeGraph.from_triples(list(entity_ids), list(relation_ids), triples, triple_index)


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
    unresolved: dict[str, list[str]] = {}

    def parse(obj: dict) -> Question:
        qid, text = json_field(obj, "id", str), json_field(obj, "question", str)
        problems: list[str] = []

        def resolve(key: str) -> frozenset[int]:
            ids = []
            for lab in json_field(obj, key, tuple[str, ...], ()):
                eid = g.entity_id(lab)
                if eid is None:
                    problems.append(lab)
                else:
                    ids.append(eid)
            return frozenset(ids)

        query, answers = resolve("question_entities"), resolve("answer_entities")
        scope: frozenset[int] | None = None
        items = json_field(obj, "scope", list | None, None)
        if items is not None:
            tids = []
            for item in items:
                h, r, t = item
                tid = g.resolve(h, r, t)
                if tid is not None:
                    tids.append(tid)
                elif type(item) is list and all(type(lab) is str for lab in item):
                    problems.append(f"{h}|{r}|{t}")
                else:  # a triple that resolves holds three labels, so only a miss is checked
                    raise KGFormatError(f"scope item {item!r} is not three labels")
            scope = frozenset(tids)
        if problems:
            unresolved[qid] = problems
            logger.warning("question %s: unresolved labels %s", qid, problems)
        return Question(qid, text, query, answers, scope)

    return read_jsonl(source, parse), unresolved
