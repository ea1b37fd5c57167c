"""Top-K subgraph selection, the step columns of retrieval and chain records, and scorer serialization."""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Collection, NamedTuple, Sequence

import numpy as np

from ..config import json_field
from ..kg import KGFormatError, KnowledgeGraph, published, read_by_question, read_jsonl, write_jsonl
from ..kg import triples_from_record, triples_to_record

MODEL_FORMAT_VERSION = 2


class RetrievedTriple(NamedTuple):
    """A scored triple. ``merged`` holds the parallel triples (ascending ids above ``tid``) that
    an entity scorer merged into it; its labels come from the graph (:func:`relation_text`)."""

    tid: int
    score: float
    merged: tuple[int, ...] = ()


def relation_text(g: KnowledgeGraph, step: RetrievedTriple) -> str:
    """The relation a step shows: its triple's own label or, merged, that label followed by the
    labels of its merged triples, joined by " | "."""
    relations, column = g.relations, g.storage.relation
    return " | ".join([relations[column[x]] for x in (step.tid, *step.merged)])


def top_k(
    scored: Sequence[tuple[int, float]],
    k: int,
    merged: dict[int, tuple[int, ...]] | None = None,
) -> tuple[RetrievedTriple, ...]:
    """The k highest-scoring triples, by descending score; ties break toward the smaller triple id.
    ``merged`` gives the parallel triples merged into a representative, as
    :func:`~kgrag.retriever.entity_to_triple_scores` returns them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not scored:
        return ()
    tids, scores = zip(*scored)
    ranked = np.lexsort((np.array(tids), -np.array(scores, dtype=np.float64)))[:k].tolist()
    merged = merged or {}
    return tuple(RetrievedTriple(tids[i], float(scores[i]), merged.get(tids[i], ())) for i in ranked)


def steps_to_record(steps: Sequence[RetrievedTriple], g: KnowledgeGraph) -> dict:
    """The step columns a retrieval record and an evidence chain share: the triple column of the
    steps (their own labels), ``scores``, and ``merged``, a ``[step id, merged id, ...]`` group
    per step that merged parallel triples."""
    return {
        **triples_to_record(g, [s.tid for s in steps]),
        "scores": [s.score for s in steps],
        "merged": [[s.tid, *s.merged] for s in steps if s.merged],
    }


def subgraph_to_record(qid: str, sub: Sequence[RetrievedTriple], g: KnowledgeGraph) -> dict:
    return {"id": qid, **steps_to_record(sub, g)}


def steps_from_record(rec: dict, g: KnowledgeGraph) -> tuple[RetrievedTriple, ...]:
    """The steps :func:`steps_to_record` wrote into ``rec``. Besides the triple columns that
    :func:`~kgrag.kg.triples_from_record` refuses, :class:`KGFormatError` is raised for scores
    of another length, and for a ``merged`` group unless its first id is a step grouped nowhere
    else and the rest, one or more, are ascending ids above it of triples joining the same ends."""
    tids = triples_from_record(rec, g)
    scores = json_field(rec, "scores", tuple[float, ...])
    if len(scores) != len(tids):
        raise KGFormatError("tids and scores differ in length")
    steps = list(map(RetrievedTriple, tids, scores))
    groups = json_field(rec, "merged", tuple[tuple[int, ...], ...])
    at = {tid: i for i, tid in enumerate(tids)} if groups else {}
    s = g.storage
    for group in groups:
        i = at.get(group[0]) if group else None
        if i is None or steps[i].merged or len(group) < 2 or any(a >= b for a, b in zip(group, group[1:])):
            raise KGFormatError(f"merged group {list(group)} is not a step grouped once and ascending ids above it")
        if group[-1] >= len(s):
            raise KGFormatError(f"merged triple id {group[-1]} not in graph")
        head, tail = s.head[group[0]], s.tail[group[0]]
        for other in group[1:]:
            if (s.head[other], s.tail[other]) != (head, tail):
                raise KGFormatError(f"merged triple {other} does not join {g.entities[head]} to {g.entities[tail]}")
        steps[i] = steps[i]._replace(merged=group[1:])
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
