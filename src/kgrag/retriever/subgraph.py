"""Top-K subgraph selection, the step columns of retrieval and chain records, and scorer serialization."""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Collection, NamedTuple, Sequence

import numpy as np

from ..config import json_field
from ..kg import KGFormatError, KnowledgeGraph, published, read_by_question, read_jsonl, write_jsonl

MODEL_FORMAT_VERSION = 2


class RetrievedTriple(NamedTuple):
    """A scored triple with the labels needed to render it without the graph."""

    tid: int
    head: int
    tail: int
    head_label: str
    relation: str
    tail_label: str
    score: float


def top_k(
    scored: Sequence[tuple[int, float]],
    k: int,
    g: KnowledgeGraph,
    relation_overrides: dict[int, str] | None = None,
) -> tuple[RetrievedTriple, ...]:
    """The k highest-scoring triples, by descending score; ties break toward the smaller triple id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not scored:
        return ()
    tids, scores = zip(*scored)
    ranked = np.lexsort((np.array(tids), -np.array(scores, dtype=np.float64)))[:k].tolist()
    overrides = relation_overrides or {}
    s, names, relations = g.storage, g.entities, g.relations
    entries = []
    for i in ranked:
        tid = tids[i]
        h, t = s.head[tid], s.tail[tid]
        relation = overrides.get(tid, relations[s.relation[tid]])
        # by position: keywords would cost more than the rest of the loop
        entries.append(RetrievedTriple(tid, h, t, names[h], relation, names[t], float(scores[i])))
    return tuple(entries)


def steps_to_record(steps: Sequence[RetrievedTriple]) -> dict:
    """The step columns a retrieval record and an evidence chain share: ``tids``, ``triples``
    (``[head, relation, tail]`` labels) and ``scores``, one entry per step."""
    return {
        "tids": [s.tid for s in steps],
        "triples": [[s.head_label, s.relation, s.tail_label] for s in steps],
        "scores": [s.score for s in steps],
    }


def subgraph_to_record(qid: str, sub: Sequence[RetrievedTriple]) -> dict:
    return {"id": qid, **steps_to_record(sub)}


def read_step(g: KnowledgeGraph, tid: int, labels, score: float) -> RetrievedTriple:
    """The retrieved triple ``tid`` of ``g`` that a record gives as ``labels`` ``[head, relation,
    tail]``. The relation is ``tid``'s own label or, as an entity scorer merges parallel triples,
    that label and then, each after ``" | "``, the labels of some of the triples of ``g`` joining
    the same ends with ids above ``tid``, in ascending id (a scope may leave any of them out).
    A label may itself hold ``" | "``. An id outside the graph, ends other than the graph's and
    any other relation raise :class:`KGFormatError`."""
    h, r, t = labels
    s = g.storage  # read by column: a Triple and three label calls per step cost a third more
    if not 0 <= tid < len(s):
        raise KGFormatError(f"retrieved triple id {tid} not in graph")
    head, tail = s.head[tid], s.tail[tid]
    ends = g.entities[head], g.entities[tail]
    if (h, t) != ends:
        raise KGFormatError(f"retrieved triple {tid} joins {ends[0]} to {ends[1]}, not {h} to {t}")
    own = g.relations[s.relation[tid]]
    if r != own:
        # the offsets of r at which own, merged with some of the parallel labels seen so far, ends
        stops = {len(own)} if type(r) is str and r.startswith(own) else set()
        for other in g.out_index.get(head, ()) if stops else ():
            if other > tid and s.tail[other] == tail:
                part = " | " + g.relations[s.relation[other]]
                stops |= {stop + len(part) for stop in stops if r.startswith(part, stop)}
        if not stops or len(r) not in stops:
            raise KGFormatError(f"retrieved triple {tid} has relation {r!r}, not {own!r} or its merge with parallel ones")
    return RetrievedTriple(tid, head, tail, h, r, t, score)


def steps_from_record(rec: dict, g: KnowledgeGraph) -> tuple[RetrievedTriple, ...]:
    """The steps :func:`steps_to_record` wrote into ``rec``, each as :func:`read_step` reads it;
    columns of unequal length raise :class:`KGFormatError`.

    A step that holds its triple's own labels is taken as it stands; only the others, and a
    record with an id outside the graph, go through :func:`read_step`, which matches a merged
    relation or raises the error of the first step it refuses."""
    tids, scores = json_field(rec, "tids", tuple[int, ...]), json_field(rec, "scores", tuple[float, ...])
    triples = json_field(rec, "triples", list)  # read last, so that an unpacking error names it
    if not len(tids) == len(triples) == len(scores):
        raise KGFormatError("tids, triples and scores differ in length")
    s, names, relations = g.storage, g.entities, g.relations
    if tids and not (0 <= min(tids) and max(tids) < len(s)):
        return tuple(read_step(g, tid, labels, score) for tid, labels, score in zip(tids, triples, scores))
    steps = []
    for tid, labels, score in zip(tids, triples, scores):
        h, r, t = labels
        head, tail = s.head[tid], s.tail[tid]
        if h == names[head] and t == names[tail] and r == relations[s.relation[tid]]:
            steps.append(RetrievedTriple(tid, head, tail, h, r, t, score))
        else:
            steps.append(read_step(g, tid, labels, score))
    return tuple(steps)


write_subgraphs = write_jsonl


def read_subgraphs(source, g: KnowledgeGraph, ids: Collection[str]) -> dict[str, tuple[RetrievedTriple, ...]]:
    return read_by_question(source, lambda rec: steps_from_record(rec, g), "id", ids)


# -- model files ---------------------------------------------------------------


class ModelFormatError(Exception):
    """A well-formed model of another format version, kind or encoder."""


def save_model(model, path: str | Path) -> None:
    """Versioned JSON dump of architecture, metadata, and weights.

    A weight is ``{"shape", "data"}``, data the base64 of its little-endian
    float64 bytes, so loading gives back every bit (``-0.0`` and subnormals too).
    """
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "encoder_tag": model.encoder_tag,
        "dde_depth": model.dde_depth,
        "dde_slots": model.dde_slots,
        "seed": model.seed,
        "arch": model.arch(),
        "weights": {
            name: {"shape": list(w.shape), "data": base64.b64encode(w.astype("<f8").tobytes()).decode()}
            for name, w in model.named_params()
        },
    }
    with published(path) as fh:
        json.dump(payload, fh, sort_keys=True)


def load_model(
    path: str | Path, expected_encoder_tag: str | None = None, expected_kind: str | None = None
):
    """The model :func:`save_model` wrote to ``path``: one JSON object on one line.

    A file that is not that object, a record missing a field or holding one of
    the wrong type, and weights that do not match the architecture raise
    :class:`KGFormatError`; a model of another format version, an unknown kind,
    or an encoder or kind other than the expected one raises :class:`ModelFormatError`.
    """
    from . import SCORERS

    def parse(payload: dict):
        version = json_field(payload, "format_version", int)
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format {version}")
        tag = json_field(payload, "encoder_tag", str)
        if expected_encoder_tag is not None and tag != expected_encoder_tag:
            raise ModelFormatError(
                f"encoder tag mismatch: model has {tag!r}, expected {expected_encoder_tag!r}"
            )
        kind = json_field(payload, "kind", str)
        if kind not in SCORERS:
            raise ModelFormatError(f"unknown model kind {kind!r}")
        if expected_kind is not None and kind != expected_kind:
            raise ModelFormatError(f"model kind mismatch: model has {kind!r}, expected {expected_kind!r}")
        return SCORERS[kind].from_payload(payload)

    with Path(path).open("rb") as fh:
        models = read_jsonl(fh, parse)
    if len(models) != 1:
        raise KGFormatError(f"expected one model record, found {len(models)}")
    return models[0]
