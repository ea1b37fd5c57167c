"""Immutable knowledge-graph storage with directional adjacency and question scoping.

Entities and relations get dense integer ids in first-seen order; labels live
in side tables, and triples are three id columns. Triples are a set: duplicates
are collapsed at load time (the collapse count is logged). A graph restricted to
a question scope shares the parent's vocabulary, columns and triple ids, so ids
stay stable across views. Whole-graph structures are built only when used.
The loading section owns the artifact format: :func:`read_jsonl`,
:func:`write_jsonl` and :func:`published` are the only reader, writer and publisher,
and :func:`read_by_question` the only reader of a per-question artifact.
"""

from __future__ import annotations

import base64
import io
import json
import logging
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import IO, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

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


# a Triple from a (head, relation, tail) tuple, at half the cost of calling Triple
_triple = partial(tuple.__new__, Triple)


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

    def relation_path(self, g: "KnowledgeGraph") -> tuple[tuple[int, str], ...]:
        """Ordered (relation id, orientation) pairs underlying this path."""
        return tuple(
            (g.triple(tid).relation, orient)
            for tid, orient in zip(self.triple_ids, self.orientations)
        )

    def validate(self, g: "KnowledgeGraph") -> None:
        """Raise :class:`KGFormatError` naming the first step that does not start where the
        previous one ends."""
        cur = self.source(g)
        for tid, orient in zip(self.triple_ids, self.orientations):
            tr = g.triple(tid)
            if step_entry(tr, orient) != cur:
                step, at = " ".join(g.triple_labels([tid])[0]), g.entity_label(cur)
                raise KGFormatError(f"path broken: step {step} ({orient}) does not start at {at}")
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


class _Storage:
    """The id columns of every stored triple, shared by a graph and all its views.

    ``triple_index`` (each stored ``(head, relation, tail)`` to its id) serves ``ingest`` only:
    :func:`load_kg` hands over the one it builds, and :func:`load_questions` resolves scope
    labels in it. A later stage reads triples by id, so it never builds one.
    """

    def __init__(self, head: Sequence[int], relation: Sequence[int], tail: Sequence[int]):
        self.head, self.relation, self.tail = head, relation, tail

    def __len__(self) -> int:
        return len(self.head)

    @cached_property
    def triple_index(self) -> dict[tuple[int, int, int], int]:
        return dict(zip(zip(self.head, self.relation, self.tail), range(len(self.head))))


@dataclass(eq=False)
class KnowledgeGraph:
    """Triple store over id columns plus directional adjacency indices.

    ``storage`` holds the head, relation and tail id of every stored triple;
    ``triple_ids`` lists the ids visible in this graph (a scoped view shares the
    parent's storage and lists a subset). Iteration order over visible triples is
    load order. ``out_index``/``in_index`` cover this graph's own ids and are built
    on first use. Artifacts name a triple by its stored id, which
    :func:`triples_from_record` checks against the labels recorded beside it.
    """

    entities: list[str]
    relations: list[str]
    storage: _Storage = field(repr=False)
    triple_ids: tuple[int, ...]
    entity_ids: dict[str, int] = field(repr=False)
    relation_ids: dict[str, int] = field(repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_columns(cls, entities: list[str], relations: list[str], storage: _Storage) -> "KnowledgeGraph":
        """Graph showing every triple of ``storage``, whose triples must be distinct."""
        return cls(
            entities=entities,
            relations=relations,
            storage=storage,
            triple_ids=tuple(range(len(storage))),
            entity_ids={lab: i for i, lab in enumerate(entities)},
            relation_ids={lab: i for i, lab in enumerate(relations)},
        )

    def restrict(self, scope: Iterable[int]) -> "KnowledgeGraph":
        """View showing the given stored triple ids (shared vocabulary), whatever this graph shows."""
        tids = sorted(set(scope))
        for tid in tids[:1] + tids[-1:]:  # sorted, so the ends bound every id
            if tid < 0 or tid >= len(self.storage):
                raise KeyError(f"scope references unknown triple id {tid}")
        return KnowledgeGraph(
            entities=self.entities,
            relations=self.relations,
            storage=self.storage,
            triple_ids=tuple(tids),
            entity_ids=self.entity_ids,
            relation_ids=self.relation_ids,
        )

    # -- lazy structures ---------------------------------------------------

    @cached_property
    def _indices(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        return _build_indices(self.storage, self.triple_ids)

    @property
    def out_index(self) -> dict[int, list[int]]:
        """Visible triple ids per head entity, in load order."""
        return self._indices[0]

    @property
    def in_index(self) -> dict[int, list[int]]:
        """Visible triple ids per tail entity, in load order."""
        return self._indices[1]

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.triple_ids)

    def columns(self) -> tuple[list[int], list[int], list[int]]:
        """The head, relation and tail ids of the visible triples, in ``triple_ids`` order."""
        s, tids = self.storage, self.triple_ids
        return [s.head[t] for t in tids], [s.relation[t] for t in tids], [s.tail[t] for t in tids]

    def iter_triples(self) -> Iterator[tuple[int, Triple]]:
        return zip(self.triple_ids, map(_triple, zip(*self.columns())))

    def triple(self, tid: int) -> Triple:
        s = self.storage
        return _triple((s.head[tid], s.relation[tid], s.tail[tid]))

    def entity_label(self, e: int) -> str:
        return self.entities[e]

    def relation_label(self, r: int) -> str:
        return self.relations[r]

    def entity_id(self, label: str) -> int | None:
        return self.entity_ids.get(label)

    def triple_labels(self, tids: Iterable[int]) -> list[list[str]]:
        """The ``[head, relation, tail]`` labels of each stored triple id, as artifacts record them."""
        e, r, s = self.entities, self.relations, self.storage
        return [[e[s.head[t]], r[s.relation[t]], e[s.tail[t]]] for t in tids]

    def steps(self, e: int) -> list[tuple[int, str]]:
        """``(triple id, orientation leaving e)`` per triple touching ``e``, in id order.

        A self-loop appears once, as forward.
        """
        steps = dict.fromkeys(self.in_index.get(e, ()), BACKWARD)
        steps.update(dict.fromkeys(self.out_index.get(e, ()), FORWARD))
        return sorted(steps.items())


def _build_indices(
    storage: _Storage, tids: Iterable[int]
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    head, tail = storage.head, storage.tail
    out_index: dict[int, list[int]] = {}
    in_index: dict[int, list[int]] = {}
    for tid in tids:
        out_index.setdefault(head[tid], []).append(tid)
        in_index.setdefault(tail[tid], []).append(tid)
    return out_index, in_index


def hop_distances(
    g: KnowledgeGraph,
    anchors: Iterable[int],
    direction: str = "both",
    *,
    targets: Iterable[int] | None = None,
    depth: int | None = None,
) -> dict[int, int]:
    """Multi-source BFS hop distance from ``anchors`` to every entity they reach in ``g``.

    ``out`` follows edge direction, ``in`` runs against it and ``both`` ignores it.
    The search may stop early; every distance it gives is still exact:

    - with ``targets``, it stops once it has reached them all, so it gives every target it
      reaches and every entity nearer than the farthest target, and maybe some as far;
    - with ``depth``, it gives exactly the entities within ``depth`` hops.
    """
    # (index, column of the entity at the far end) pairs to follow
    walks = {"out": ((g.out_index, g.storage.tail),), "in": ((g.in_index, g.storage.head),)}
    walks["both"] = walks["out"] + walks["in"]
    if direction not in walks:
        raise ValueError(f"unknown direction {direction!r}")
    dist = dict.fromkeys(anchors, 0)
    missing = set() if targets is None else set(targets).difference(dist)
    if targets is not None and not missing:
        return dist
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        if depth is not None and d > depth:
            break
        for index, far in walks[direction]:
            for tid in index.get(u, ()):
                v = far[tid]
                if v not in dist:
                    dist[v] = d
                    queue.append(v)
                    if v in missing:
                        missing.discard(v)
                        if not missing:
                            return dist
    return dist


def working_graph(g: KnowledgeGraph, q: Question) -> KnowledgeGraph:
    """The graph a question operates on: ``q.scope`` when present, else ``g``."""
    if q.scope is None:
        return g
    return g.restrict(q.scope)


# -- loading / serialization -----------------------------------------------


def _decode_lines(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each line, with or without its line break; a line of bytes that
    is not UTF-8 is a KGFormatError. A file is read and decoded whole and split where iterating
    it would split, at each ``\\n``; only a file that is not UTF-8 is decoded line by line, to
    name the line."""
    if hasattr(source, "read"):
        data = source.read()
        try:
            source = (data.decode("utf-8") if isinstance(data, bytes) else data).split("\n")
        except UnicodeDecodeError:
            source = io.BytesIO(data)
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
        out.append(_parsed(obj, parse, lambda message: KGFormatError(message, lineno)))
    return out


def read_items(rec: dict, key: str, parse: Callable[[dict], T]) -> list[T]:
    """``parse(item)`` for each object of the list ``rec[key]``; a record's nested objects are
    read with this, so that an error names the item and the field read inside it, as
    ``{key}[{index}]: field ...``."""
    items = json_field(rec, key, tuple[dict, ...])
    return [_parsed(obj, parse, lambda message: KGFormatError(f"{key}[{i}]: {message}")) for i, obj in enumerate(items)]


def _parsed(obj: dict, parse: Callable[[dict], T], error: Callable[[str], KGFormatError]) -> T:
    """``parse(obj)``, read as a :class:`_Record`; what it raises (``KeyError``, ``TypeError``,
    ``ValueError``, a line-less :class:`KGFormatError`) becomes ``error(message)``, the message
    naming the field last read."""
    rec = _Record(obj)
    try:
        return parse(rec)
    except KGFormatError as exc:
        if exc.line is not None:
            raise
        raise error(str(exc)) from exc
    except KeyError as exc:
        raise error(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise error(f"field {rec.last_key!r}: {exc}") from exc


def read_by_question(
    source: IO[bytes] | IO[str] | Iterable[str], parse: Callable[[dict], T], key: str,
    ids: Collection[str], every: bool = True,
) -> dict[str, T]:
    """``parse(record)`` by the question id each record holds as the string ``key``, in line order.
    An id not in ``ids``, an id given twice and, with ``every``, a question of ``ids`` with no
    record raise :class:`KGFormatError`, as do the lines :func:`read_jsonl` refuses."""
    known, out = set(ids), {}

    def keyed(rec: dict) -> None:
        qid = json_field(rec, key, str)
        if qid not in known:
            raise KGFormatError(f"question {qid!r} is not in questions.jsonl")
        if qid in out:
            raise KGFormatError(f"a second record for question {qid!r}")
        out[qid] = parse(rec)

    read_jsonl(source, keyed)
    for qid in ids if every else ():
        if qid not in out:
            raise KGFormatError(f"no line holds question {qid!r}")
    return out


# json.dumps would build one per record; NaN and ±Infinity are not JSON (RFC 8259)
_JSONL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, allow_nan=False)


def write_jsonl(sink: IO[str], records: Iterable[dict]) -> None:
    """One sorted-key JSON object per line, non-ASCII text unescaped; a float that is not finite
    raises ``ValueError``, so that inside :func:`published` no artifact is replaced."""
    for rec in records:
        sink.write(_JSONL.encode(rec) + "\n")


def triples_to_record(g: KnowledgeGraph, tids: Sequence[int]) -> dict:
    """The triple column of an artifact record: the stored ids ``tids``, and ``triples``, the
    ``[head, relation, tail]`` labels of each, which :func:`triples_from_record` checks."""
    return {"tids": list(tids), "triples": g.triple_labels(tids)}


def triples_from_record(rec: dict, g: KnowledgeGraph) -> tuple[int, ...]:
    """The ids of the triple column :func:`triples_to_record` wrote into ``rec``. Each must be a
    stored triple of ``g`` whose labels are the ``triples`` beside it: so a record of another
    graph is refused. The first step refused raises, its id not in ``g`` as
    :class:`KGFormatError` and its labels not ``g``'s as ``ValueError``, which names ``triples``."""
    tids = json_field(rec, "tids", tuple[int, ...])
    triples = json_field(rec, "triples", list)  # read last, so that the ValueError names it
    if len(triples) != len(tids):
        raise KGFormatError("tids and triples differ in length")
    if tids and not (0 <= min(tids) and max(tids) < len(g.storage) and triples == g.triple_labels(tids)):
        for tid, labels in zip(tids, triples):
            if not 0 <= tid < len(g.storage):
                raise KGFormatError(f"triple id {tid} not in graph")
            (own,) = g.triple_labels((tid,))
            if labels != own:
                raise ValueError(f"triple {tid} is {own} in the graph, not {labels!r}")
    return tids


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
        parts = line.split("\t")
        if len(parts) == 3:
            row = (parts[0].strip(), parts[1].strip(), parts[2].strip())  # a line break goes too
            if all(row):
                yield row
                continue
        if not line.strip():  # a blank line, tabs and all
            continue
        if len(parts) != 3:
            raise KGFormatError(f"expected 3 tab-separated fields, got {len(parts)}", lineno)
        raise KGFormatError("empty head, relation, or tail", lineno)


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


COMPILED_FORMAT_VERSION = 3


def load_kg(source: IO[bytes] | IO[str] | Iterable[str], format: str = "tsv") -> KnowledgeGraph:
    """Load a graph from TSV (``head<TAB>relation<TAB>tail``), JSONL (``{h,r,t}``) or the
    ``compiled`` record :func:`to_compiled` writes.

    Ids are assigned in first-seen order; duplicate triples are collapsed and
    the collapse count logged. Malformed records raise :class:`KGFormatError`
    with the offending line number. An empty stream yields an empty graph.
    A compiled record with a column that is not base64 of little-endian int32 ids,
    columns of unequal length, an id out of range, or a repeated label or triple
    raises :class:`KGFormatError`; the digest of its bytes is checked by the reader
    of the compiled questions, whose header names it.
    """
    if format == "compiled":
        graphs = read_jsonl(source, _compiled_graph)
        if len(graphs) != 1:
            raise KGFormatError(f"expected one graph record, found {len(graphs)}")
        return graphs[0]
    if format not in ("tsv", "jsonl"):
        raise ValueError(f"unknown triple format {format!r}")

    entity_ids: dict[str, int] = {}  # label -> id; insertion order is id order
    relation_ids: dict[str, int] = {}
    head: list[int] = []
    relation: list[int] = []
    tail: list[int] = []
    triple_index: dict[tuple[int, int, int], int] = {}
    duplicates = 0
    rows = _tsv_rows(source) if format == "tsv" else read_jsonl(source, _jsonl_row)
    for h_lab, r_lab, t_lab in rows:
        ids = (
            entity_ids.setdefault(h_lab, len(entity_ids)),
            relation_ids.setdefault(r_lab, len(relation_ids)),
            entity_ids.setdefault(t_lab, len(entity_ids)),
        )
        if ids in triple_index:
            duplicates += 1
            continue
        triple_index[ids] = len(head)
        head.append(ids[0])
        relation.append(ids[1])
        tail.append(ids[2])

    if duplicates:
        logger.info("collapsed %d duplicate triples at load", duplicates)
    storage = _Storage(head, relation, tail)
    storage.triple_index = triple_index
    return KnowledgeGraph.from_columns(list(entity_ids), list(relation_ids), storage)


def _compiled_graph(rec: dict) -> KnowledgeGraph:
    labels = {key: list(json_field(rec, key, tuple[str, ...])) for key in ("entities", "relations")}
    # a column that is not base64 or not whole int32s raises a ValueError, reported with its field
    columns = {
        key: np.frombuffer(base64.b64decode(json_field(rec, key, str), validate=True), "<i4")
        for key in ("head", "relation", "tail")
    }
    if len(set(map(len, columns.values()))) > 1:
        raise KGFormatError("head, relation and tail differ in length")
    for key, vocabulary in (("head", "entities"), ("relation", "relations"), ("tail", "entities")):
        size = len(labels[vocabulary])
        if len(columns[key]) and not (0 <= columns[key].min() and columns[key].max() < size):
            raise KGFormatError(f"{key} holds an id outside the {size} {vocabulary}")
    head, relation, tail = columns.values()
    storage = _Storage(head.tolist(), relation.tolist(), tail.tolist())
    g = KnowledgeGraph.from_columns(labels["entities"], labels["relations"], storage)
    if len(g.entity_ids) < len(g.entities) or len(g.relation_ids) < len(g.relations):
        raise KGFormatError("a label repeats")
    # ids are in range, so head * E + tail is exact in int64; only rows whose (head, tail)
    # repeats can repeat a triple, and among them (that pair, relation) must be unique
    pair = head.astype(np.int64) * len(g.entities) + tail
    order = np.argsort(pair)
    ordered = pair[order]
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
    repeated = np.zeros(len(pair), bool)  # not np.union1d: it imports numpy.ma, 0.5 MiB, in light stages
    repeated[repeats] = repeated[repeats + 1] = True
    rows = order[repeated]
    if len(set(zip(pair[rows].tolist(), relation[rows].tolist()))) < len(rows):
        raise KGFormatError("a triple repeats")
    return g


def to_tsv(g: KnowledgeGraph, sink: IO[str]) -> None:
    """Write visible triples as TSV in load order; reloading reproduces ids."""
    e, r, s = g.entities, g.relations, g.storage
    sink.write("".join(f"{e[s.head[t]]}\t{r[s.relation[t]]}\t{e[s.tail[t]]}\n" for t in g.triple_ids))


def to_compiled(g: KnowledgeGraph, sink: IO[str]) -> None:
    """Write the stored graph as the one record ``load_kg(..., "compiled")`` reads: its labels
    and its id columns, each the base64 of its little-endian int32 bytes. The header of the
    compiled questions holds the digest of these bytes."""
    s = g.storage
    record = {"entities": g.entities, "relations": g.relations}
    for key, column in (("head", s.head), ("relation", s.relation), ("tail", s.tail)):
        record[key] = base64.b64encode(np.asarray(column, "<i4").tobytes()).decode()
    write_jsonl(sink, [record])


def load_questions(
    source: IO[bytes] | IO[str] | Iterable[str], g: KnowledgeGraph
) -> tuple[list[Question], dict[str, list[str]]]:
    """Load question records and look their entity labels up in the vocabulary.

    Records are JSONL objects ``{id, question, question_entities,
    answer_entities, scope?}`` where scope is a list of ``[h, r, t]`` label
    triples, resolved against ``g``'s stored triples. A repeated id, and answer
    labels none of which resolves, raise :class:`KGFormatError`. Other
    unresolvable labels are dropped and reported per question id in the
    returned mapping. Only ``ingest`` resolves labels, scope items in ``g.storage.triple_index``:
    it compiles the result for the later stages (:func:`to_compiled_questions`).
    """
    unresolved: dict[str, list[str]] = {}
    # scope items are looked up in one pass over the label maps and the triple index
    entity, relation, triple = g.entity_ids.get, g.relation_ids.get, g.storage.triple_index.get
    seen: set[str] = set()

    def parse(obj: dict) -> Question:
        qid = json_field(obj, "id", str)
        if qid in seen:
            raise ValueError(f"question {qid!r} repeats")
        seen.add(qid)
        text = json_field(obj, "question", str)
        problems: list[str] = []

        def entity_set(key: str) -> frozenset[int]:
            ids = []
            for lab in json_field(obj, key, tuple[str, ...], ()):
                eid = entity(lab)
                if eid is None:
                    problems.append(lab)
                else:
                    ids.append(eid)
            return frozenset(ids)

        query, answers = entity_set("question_entities"), entity_set("answer_entities")
        scope: frozenset[int] | None = None
        items = json_field(obj, "scope", list | None, None)
        if items is not None:
            tids = []
            for item in items:
                h, r, t = item
                tid = triple((entity(h), relation(r), entity(t)))
                if tid is not None:
                    tids.append(tid)
                elif type(item) is list and all(type(lab) is str for lab in item):
                    problems.append(f"{h}|{r}|{t}")
                else:  # a triple that resolves holds three labels, so only a miss is checked
                    raise KGFormatError(f"scope item {item!r} is not three labels")
            scope = frozenset(tids)
        if not answers and json_field(obj, "answer_entities", tuple[str, ...], ()):
            raise KGFormatError(f"question {qid!r}: no answer label is in the graph")
        if problems:
            unresolved[qid] = problems
        return Question(qid, text, query, answers, scope)

    return read_jsonl(source, parse), unresolved


def to_compiled_questions(
    questions: Sequence[Question], g: KnowledgeGraph, sink: IO[str], sha256: dict[str, str]
) -> None:
    """Write what :func:`load_compiled_questions` reads: a header ``{format_version, questions,
    sha256}`` that counts the questions and gives the digest of each file named in ``sha256``
    (at ingest, every other file it writes, so that the header is the one record of them),
    then per question ``{id, question, query_entities, answer_entities, answers, scope}``: ids
    in place of labels, the answer labels (the gold) and the scope's triple ids or null."""
    header = {"format_version": COMPILED_FORMAT_VERSION, "questions": len(questions), "sha256": sha256}
    records = (
        {
            "id": q.id,
            "question": q.text,
            "query_entities": sorted(q.query_entities),
            "answer_entities": sorted(q.answer_entities),
            "answers": [g.entity_label(a) for a in sorted(q.answer_entities)],
            "scope": sorted(q.scope) if q.scope is not None else None,
        }
        for q in questions
    )
    write_jsonl(sink, [header, *records])


def load_compiled_questions(
    source: IO[bytes] | IO[str] | Iterable[str], sha256: dict[str, str], g: KnowledgeGraph | None = None
) -> tuple[list[Question], dict[str, frozenset[str]]]:
    """The questions :func:`to_compiled_questions` wrote and their gold answer labels by id,
    read without resolving a label.

    For each file ``sha256`` names, the header must hold that digest; every other digest in it
    must be a str, and it must count the records that follow. With ``g``, every entity and triple
    id must be in it and each question's answer labels must be ``g``'s labels of its answer ids.
    Any of these that fails, another format version, a repeated id or a field of the wrong type
    raises :class:`KGFormatError`.
    """
    counted: list[int] = []  # the header's question count, once read
    questions: dict[str, Question] = {}
    gold: dict[str, frozenset[str]] = {}

    def parse(rec: dict) -> None:
        if not counted:
            version = json_field(rec, "format_version", int)
            if version != COMPILED_FORMAT_VERSION:
                raise KGFormatError(f"compiled questions format {version}, expected {COMPILED_FORMAT_VERSION}")
            written = json_field(rec, "sha256", dict)
            written = {name: json_field(written, name, str) for name in {*written, *sha256}}
            for name, digest in sha256.items():
                if written[name] != digest:
                    raise KGFormatError(f"compiled from a {name} of sha256 {written[name]}, but {name} has {digest}")
            counted.append(json_field(rec, "questions", int))
            return
        qid = json_field(rec, "id", str)
        if qid in questions:
            raise KGFormatError(f"question {qid!r} repeats")
        text = json_field(rec, "question", str)
        query, answer_ids = (json_field(rec, key, tuple[int, ...]) for key in ("query_entities", "answer_entities"))
        answers = json_field(rec, "answers", tuple[str, ...])
        scope = json_field(rec, "scope", tuple[int, ...] | None)
        if g is not None:
            for key, ids, size, what in (
                ("query_entities", query, len(g.entities), "entities"),
                ("answer_entities", answer_ids, len(g.entities), "entities"),
                ("scope", scope or (), len(g.storage), "triples"),
            ):
                if ids and not (0 <= min(ids) and max(ids) < size):
                    raise KGFormatError(f"{key} holds an id outside the {size} {what}")
            if answers != tuple(g.entities[a] for a in answer_ids):
                raise KGFormatError(f"question {qid!r}: answers are not the labels of answer_entities")
        questions[qid] = Question(
            qid, text, frozenset(query), frozenset(answer_ids), None if scope is None else frozenset(scope)
        )
        gold[qid] = frozenset(answers)

    read_jsonl(source, parse)
    if not counted:
        raise KGFormatError("no header record")
    if counted[0] != len(questions):
        raise KGFormatError(f"the header counts {counted[0]} questions, but {len(questions)} follow it")
    return list(questions.values()), gold
