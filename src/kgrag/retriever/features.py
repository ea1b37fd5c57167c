"""Query/triple text embeddings and directional distance encoding (DDE).

The default text encoder is a hashed bag-of-tokens: stable across runs and
processes, no model weights involved. DDE records, for every entity of the
question's working graph, the forward BFS hop distance (following edge
direction) and the backward distance from an anchor set, each capped at the
configured depth with a separate "unreachable" bucket, one-hot encoded.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..kg import KnowledgeGraph, Question, hop_distances

_TOKEN = re.compile(r"\w+")

DEFAULT_TEXT_DIM = 256
DEFAULT_DDE_DEPTH = 3
DEFAULT_DDE_SLOTS = 3


class TextEncoder(Protocol):
    tag: str

    def __call__(self, text: str) -> np.ndarray: ...

    @property
    def dim(self) -> int: ...


class HashedBowEncoder:
    """L2-normalized hashed bag-of-tokens into a fixed dimension."""

    def __init__(self, dim: int = DEFAULT_TEXT_DIM):
        self._dim = dim
        self.tag = f"hashed-bow-{dim}"
        self._cache: dict[str, np.ndarray] = {}

    @property
    def dim(self) -> int:
        return self._dim

    def __call__(self, text: str) -> np.ndarray:
        hit = self._cache.get(text)
        if hit is not None:
            return hit
        vec = np.zeros(self._dim, dtype=np.float64)
        for token in _TOKEN.findall(text.lower()):
            digest = hashlib.md5(token.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:8], "big") % self._dim] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        self._cache[text] = vec
        return vec


def encode_text(text: str, dim: int = DEFAULT_TEXT_DIM) -> np.ndarray:
    """One-off hashed bag-of-tokens embedding (empty text gives the zero vector)."""
    return HashedBowEncoder(dim)(text)


# -- directional distances ----------------------------------------------------


def compute_dde(
    g: KnowledgeGraph, anchors: set[int], depth: int = DEFAULT_DDE_DEPTH
) -> dict[int, np.ndarray]:
    """One-hot codes ``[forward | backward]`` of hop distances from anchors.

    There is one code per entity of ``g``'s visible triples (the question's
    working graph), keyed in ascending entity id. Forward follows edge
    direction from the anchor set, backward runs against it. Finite distances
    beyond ``depth`` land in the depth bucket; entities with no path at all
    land in the unreachable bucket ``depth + 1``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    entities = sorted(g.out_index.keys() | g.in_index.keys())
    buckets = np.full((len(entities), 2), depth + 1, dtype=np.intp)
    for col, direction in enumerate(("out", "in")):
        dist = hop_distances(g, anchors, direction)
        for i, e in enumerate(entities):
            if e in dist:
                buckets[i, col] = min(dist[e], depth)
    codes = np.eye(depth + 2)[buckets].reshape(len(entities), 2 * (depth + 2))
    return dict(zip(entities, codes))


def anchor_slots(anchors: set[int], slots: int = DEFAULT_DDE_SLOTS) -> list[set[int]]:
    """Distribute query entities over a fixed number of anchor slots.

    Entities fill slots in ascending id order; when there are more entities
    than slots, the overflow is pooled into the last slot (one BFS from the
    pooled set, i.e. minimum distance to any member, keeping codes one-hot).
    Unused slots stay empty, which encodes as "unreachable".
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    ids = sorted(anchors)
    if len(ids) <= slots:
        return [{e} for e in ids] + [set() for _ in range(slots - len(ids))]
    pooled: list[set[int]] = [{e} for e in ids[: slots - 1]]
    pooled.append(set(ids[slots - 1 :]))
    return pooled


# -- the per-question bundle --------------------------------------------------


def _text_rows(encoder: TextEncoder, labels: list[str]) -> np.ndarray:
    return np.stack([encoder(label) for label in labels]) if labels else np.zeros((0, encoder.dim))


@dataclass
class QuestionFeatures:
    """Everything both scorers read for one question, over its working graph only.

    Triples are local rows in load order; entities and relations are local
    rows in ascending id order, and ``head``/``relation``/``tail`` index them.
    """

    tids: list[int]  # visible triple ids
    entity_ids: list[int]  # the view's entities, ascending
    head: np.ndarray  # (E,) local entity row per triple
    relation: np.ndarray  # (E,) local relation row per triple
    tail: np.ndarray  # (E,) local entity row per triple
    query: np.ndarray  # (T,) query text
    entity_text: np.ndarray  # (V, T)
    relation_text: np.ndarray  # (R, T)
    dde: np.ndarray  # (V, slots, 2 * (depth + 2)) one-hot [forward | backward] per slot

    def triple_matrix(self) -> np.ndarray:
        """Rows ``[query | head text | relation text | tail text | DDE]``, one per triple.

        The DDE block holds, per anchor slot, head-forward / head-backward /
        tail-forward / tail-backward one-hot codes.
        """
        n = len(self.tids)
        _, slots, width = self.dde.shape
        dde = np.concatenate([self.dde[self.head], self.dde[self.tail]], axis=2)
        return np.hstack(
            [
                np.tile(self.query, (n, 1)),
                self.entity_text[self.head],
                self.relation_text[self.relation],
                self.entity_text[self.tail],
                dde.reshape(n, 2 * slots * width),
            ]
        )

    def entity_matrix(self) -> np.ndarray:
        """Rows ``[query | entity text | DDE]``, one per entity in ``entity_ids``."""
        n, slots, width = self.dde.shape
        return np.hstack(
            [np.tile(self.query, (n, 1)), self.entity_text, self.dde.reshape(n, slots * width)]
        )


def question_features(
    g: KnowledgeGraph,
    q: Question,
    encoder: TextEncoder,
    depth: int = DEFAULT_DDE_DEPTH,
    slots: int = DEFAULT_DDE_SLOTS,
) -> QuestionFeatures:
    """Build the feature bundle of question ``q`` over its working graph ``g``."""
    tids = list(g.triple_ids)
    hrt = np.array([g.triple(t) for t in tids], dtype=np.intp).reshape(-1, 3)
    entity_ids = np.unique(hrt[:, [0, 2]])
    relation_ids = np.unique(hrt[:, 1])
    width = 2 * (depth + 2)
    dde = np.zeros((len(entity_ids), slots, width))
    dde[:, :, [depth + 1, width - 1]] = 1.0  # an empty slot stays "unreachable"
    entities = entity_ids.tolist()
    for s, slot in enumerate(anchor_slots(set(q.query_entities), slots)):
        if slot:
            codes = compute_dde(g, slot, depth)
            dde[:, s] = np.array([codes[e] for e in entities]).reshape(-1, width)
    return QuestionFeatures(
        tids=tids,
        entity_ids=entities,
        head=np.searchsorted(entity_ids, hrt[:, 0]),
        relation=np.searchsorted(relation_ids, hrt[:, 1]),
        tail=np.searchsorted(entity_ids, hrt[:, 2]),
        query=encoder(q.text),
        entity_text=_text_rows(encoder, [g.entity_label(e) for e in entities]),
        relation_text=_text_rows(encoder, [g.relation_label(r) for r in relation_ids.tolist()]),
        dde=dde,
    )


class TripleFeatureBuilder:
    """Feature rows for every triple of a question's working graph.

    A row is ``[query | head text | relation text | tail text | DDE]`` (see
    :meth:`QuestionFeatures.triple_matrix`).
    """

    def __init__(
        self,
        g: KnowledgeGraph,
        q: Question,
        encoder: TextEncoder | None = None,
        depth: int = DEFAULT_DDE_DEPTH,
        slots: int = DEFAULT_DDE_SLOTS,
    ):
        self.depth = depth
        self.slots = slots
        self.encoder = encoder or HashedBowEncoder()
        self.features = question_features(g, q, self.encoder, depth, slots)

    @property
    def dim(self) -> int:
        return 4 * self.encoder.dim + self.slots * 4 * (self.depth + 2)

    def matrix(self) -> tuple[list[int], np.ndarray]:
        return self.features.tids, self.features.triple_matrix()


def entity_feature_matrix(
    g: KnowledgeGraph,
    q: Question,
    encoder: TextEncoder | None = None,
    depth: int = DEFAULT_DDE_DEPTH,
    slots: int = DEFAULT_DDE_SLOTS,
) -> np.ndarray:
    """Node features ``[query | entity text | DDE]`` for the entities of ``g``'s
    visible triples (the question's working graph), in ascending entity id."""
    encoder = encoder or HashedBowEncoder()
    return question_features(g, q, encoder, depth, slots).entity_matrix()
