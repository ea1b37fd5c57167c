"""Top-K subgraph selection and scorer serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..kg import KGFormatError, KnowledgeGraph

MODEL_FORMAT_VERSION = 1


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
    for tid, (h, r, t), score in zip(rec["tids"], rec["triples"], rec["scores"]):
        tid = int(tid)
        if not 0 <= tid < len(g.triples):
            raise KGFormatError(f"retrieved triple id {tid} not in graph")
        tr = g.triple(tid)
        entries.append(
            RetrievedTriple(
                tid=tid,
                head=tr.head,
                tail=tr.tail,
                head_label=h,
                relation=r,
                tail_label=t,
                score=float(score),
            )
        )
    return str(rec["id"]), RetrievedSubgraph(entries=entries, k=int(rec["k"]))


def write_subgraphs(sink, records: Iterable[dict]) -> None:
    for rec in records:
        sink.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")


def read_subgraphs(source, g: KnowledgeGraph) -> dict[str, RetrievedSubgraph]:
    out: dict[str, RetrievedSubgraph] = {}
    for line in source:
        line = line.strip()
        if not line:
            continue
        qid, sub = subgraph_from_record(json.loads(line), g)
        out[qid] = sub
    return out


# -- model files ---------------------------------------------------------------


class ModelFormatError(ValueError):
    pass


def save_model(model, path: str | Path) -> None:
    """Versioned JSON dump of architecture, metadata, and weights."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "encoder_tag": model.encoder_tag,
        "dde_depth": model.dde_depth,
        "dde_slots": model.dde_slots,
        "seed": model.seed,
        "arch": model.arch(),
        "weights": {name: w.tolist() for name, w in model.named_params()},
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_model(path: str | Path, expected_encoder_tag: str | None = None):
    from .entity_scorer import EntityScorer
    from .triple_scorer import TripleScorer

    with Path(path).open(encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format {payload.get('format_version')}")
    if expected_encoder_tag is not None and payload["encoder_tag"] != expected_encoder_tag:
        raise ModelFormatError(
            f"encoder tag mismatch: model has {payload['encoder_tag']!r}, "
            f"expected {expected_encoder_tag!r}"
        )
    weights = {name: np.asarray(w, dtype=np.float64) for name, w in payload["weights"].items()}
    kind = payload.get("kind")
    if kind == "triple":
        return TripleScorer.from_payload(payload, weights)
    if kind == "entity":
        return EntityScorer.from_payload(payload, weights)
    raise ModelFormatError(f"unknown model kind {kind!r}")
