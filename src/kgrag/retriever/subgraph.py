"""Top-K subgraph selection and scorer serialization."""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..kg import KGFormatError, KnowledgeGraph, published, read_jsonl, write_jsonl

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class RetrievedTriple:
    """A scored triple with the labels needed to render it without the graph."""

    tid: int
    head: int
    tail: int
    head_label: str
    relation: str
    tail_label: str
    score: float


@dataclass
class RetrievedSubgraph:
    """Triples ordered by descending score (ties by ascending triple id)."""

    entries: list[RetrievedTriple]
    k: int

    def __len__(self) -> int:
        return len(self.entries)

    def triple_ids(self) -> list[int]:
        return [e.tid for e in self.entries]


def top_k(
    scored: Sequence[tuple[int, float]],
    k: int,
    g: KnowledgeGraph,
    relation_overrides: dict[int, str] | None = None,
) -> RetrievedSubgraph:
    """The k highest-scoring triples; ties break toward the smaller triple id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]
    overrides = relation_overrides or {}
    entries = []
    for tid, score in ranked:
        tr = g.triple(tid)
        entries.append(
            RetrievedTriple(
                tid=tid,
                head=tr.head,
                tail=tr.tail,
                head_label=g.entity_label(tr.head),
                relation=overrides.get(tid, g.relation_label(tr.relation)),
                tail_label=g.entity_label(tr.tail),
                score=float(score),
            )
        )
    return RetrievedSubgraph(entries=entries, k=k)


def subgraph_to_record(qid: str, sub: RetrievedSubgraph) -> dict:
    return {
        "id": qid,
        "k": sub.k,
        "tids": [e.tid for e in sub.entries],
        "triples": [[e.head_label, e.relation, e.tail_label] for e in sub.entries],
        "scores": [e.score for e in sub.entries],
    }


def subgraph_from_record(rec: dict, g: KnowledgeGraph) -> tuple[str, RetrievedSubgraph]:
    entries = []
    # one column at a time, so that a parse error names the field it came from
    tids, scores = [int(tid) for tid in rec["tids"]], [float(score) for score in rec["scores"]]
    for tid, (h, r, t), score in zip(tids, rec["triples"], scores):
        if not 0 <= tid < len(g.triples):
            raise KGFormatError(f"retrieved triple id {tid} not in graph")
        tr = g.triple(tid)
        # the relation label is not checked: an entity-level record may merge "r1 | r2"
        ends = g.entity_label(tr.head), g.entity_label(tr.tail)
        if (h, t) != ends:
            raise KGFormatError(f"retrieved triple {tid} joins {ends[0]} to {ends[1]}, not {h} to {t}")
        entries.append(
            RetrievedTriple(
                tid=tid,
                head=tr.head,
                tail=tr.tail,
                head_label=h,
                relation=r,
                tail_label=t,
                score=score,
            )
        )
    return str(rec["id"]), RetrievedSubgraph(entries=entries, k=int(rec["k"]))


write_subgraphs = write_jsonl


def read_subgraphs(source, g: KnowledgeGraph) -> dict[str, RetrievedSubgraph]:
    return dict(read_jsonl(source, lambda rec: subgraph_from_record(rec, g)))


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


def load_model(path: str | Path, expected_encoder_tag: str | None = None):
    """The model :func:`save_model` wrote to ``path``: one JSON object on one line.

    A file that is not that object, or a record missing a field or holding one
    of the wrong type, raises :class:`KGFormatError`; a model of another format
    version, kind or encoder raises :class:`ModelFormatError`.
    """
    from .entity_scorer import EntityScorer
    from .triple_scorer import TripleScorer

    def parse(payload: dict):
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format {payload.get('format_version')}")
        if expected_encoder_tag is not None and payload["encoder_tag"] != expected_encoder_tag:
            raise ModelFormatError(
                f"encoder tag mismatch: model has {payload['encoder_tag']!r}, "
                f"expected {expected_encoder_tag!r}"
            )
        kind = payload.get("kind")
        scorer = {"triple": TripleScorer, "entity": EntityScorer}.get(kind)
        if scorer is None:
            raise ModelFormatError(f"unknown model kind {kind!r}")
        if not isinstance(payload["weights"], dict):
            raise TypeError("weights must be a JSON object")
        weights = {
            name: np.frombuffer(base64.b64decode(w["data"], validate=True), "<f8")
            .reshape(w["shape"])
            .copy()
            for name, w in payload["weights"].items()
        }
        return scorer.from_payload(payload, weights)

    with Path(path).open(encoding="utf-8") as fh:
        models = read_jsonl(fh, parse)
    if len(models) != 1:
        raise KGFormatError(f"expected one model record, found {len(models)}")
    return models[0]
