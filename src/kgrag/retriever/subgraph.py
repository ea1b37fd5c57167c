"""Top-K subgraph selection and the step columns of retrieval and chain records."""

from __future__ import annotations

from typing import Collection, NamedTuple, Sequence

import numpy as np

from ..config import json_field
from ..kg import KGFormatError, KnowledgeGraph, read_by_question, write_jsonl
from ..kg import triples_from_record, triples_to_record


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
    :func:`~kgrag.kg.triples_from_record` refuses, :class:`KGFormatError` is raised for a step id
    listed twice, for scores of another length, and for a ``merged`` group unless its first id is
    a step grouped nowhere else and the rest, one or more, are ascending ids above it of triples
    joining the same ends."""
    tids = triples_from_record(rec, g)
    if len(set(tids)) != len(tids):
        raise KGFormatError("a step triple id repeats")
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
