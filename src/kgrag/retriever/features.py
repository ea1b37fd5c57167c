"""Query/triple text embeddings and directional distance encoding (DDE).

The text encoder is a hashed bag-of-tokens: stable across runs and
processes, no model weights involved. DDE records, for every entity of the
question's working graph, the forward BFS hop distance (following edge
direction) and the backward distance from an anchor set, each capped at the
configured depth with a separate "unreachable" bucket, one-hot encoded.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np

from ..kg import KnowledgeGraph, Question, hop_distances

_TOKEN = re.compile(r"\w+")

DEFAULT_DDE_DEPTH = 3
DEFAULT_DDE_SLOTS = 3


class HashedBowEncoder:
    """L2-normalized hashed bag-of-tokens into a fixed dimension."""

    def __init__(self, dim: int):
        self.dim = dim
        self.tag = f"hashed-bow-{dim}"
        self._cache: dict[str, np.ndarray] = {}

    @classmethod
    def from_tag(cls, tag: str) -> "HashedBowEncoder":
        """The encoder whose ``tag`` this is; any other tag raises ``ValueError``."""
        match = re.fullmatch(r"hashed-bow-([1-9][0-9]*)", tag)
        if match is None:
            raise ValueError(f"unknown encoder {tag!r}")
        return cls(int(match[1]))

    def __call__(self, text: str) -> np.ndarray:
        """The text's embedding; empty text gives the zero vector."""
        hit = self._cache.get(text)
        if hit is not None:
            return hit
        vec = np.zeros(self.dim, dtype=np.float64)
        for token in _TOKEN.findall(text.lower()):
            digest = hashlib.md5(token.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:8], "big") % self.dim] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        self._cache[text] = vec
        return vec


# -- directional distances ----------------------------------------------------


def dde_width(depth: int) -> int:
    """Width of one anchor slot's DDE code: ``depth + 2`` forward and as many backward buckets."""
    return 2 * (depth + 2)


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
    codes = np.eye(depth + 2)[buckets].reshape(len(entities), dde_width(depth))
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


def _text_rows(encoder: HashedBowEncoder, labels: list[str]) -> np.ndarray:
    return np.stack([encoder(label) for label in labels]) if labels else np.zeros((0, encoder.dim))


class Segments:
    """Rows grouped by an integer key, for sums over each group.

    One stable argsort puts the rows in key order, so each group's sum is one
    ``np.add.reduceat`` slice and adds its rows in their original order.
    """

    def __init__(self, keys: np.ndarray, size: int):
        self.size = size  # number of keys; a key no row has sums to zero
        self.order = np.argsort(keys, kind="stable")
        ordered = keys[self.order]
        self.starts = np.flatnonzero(np.diff(ordered, prepend=-1))  # keys are >= 0
        self.keys = ordered[self.starts]

    def sum(self, rows: np.ndarray) -> np.ndarray:
        """``out[k] = rows[keys == k].sum(axis=0)`` for every key ``k < size``."""
        out = np.zeros((self.size,) + rows.shape[1:])
        out[self.keys] = np.add.reduceat(rows[self.order], self.starts, axis=0)
        return out


@dataclass
class QuestionFeatures:
    """Everything both scorers read for one question, over its working graph only.

    Triples are local rows in load order; entities and relations are local
    rows in ascending id order, and ``head``/``relation``/``tail`` index them.
    The scorers never build a row per triple: they project the entity and
    relation tables once and gather the projections by these indices, and the
    ``by_*`` groupings sum per-triple gradients back onto the tables.
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
    by_head: Segments
    by_relation: Segments
    by_tail: Segments

    @property
    def triple_dim(self) -> int:
        """Width of a triple's input ``[query | head | relation | tail text | DDE]``;
        per anchor slot, its DDE holds the head's and then the tail's code."""
        _, slots, width = self.dde.shape
        return 4 * len(self.query) + 2 * slots * width

    def entity_matrix(self) -> np.ndarray:
        """Rows ``[query | entity text | DDE]``, one per entity in ``entity_ids``."""
        n, slots, width = self.dde.shape
        return np.hstack(
            [np.tile(self.query, (n, 1)), self.entity_text, self.dde.reshape(n, slots * width)]
        )


def question_features(
    g: KnowledgeGraph,
    q: Question,
    encoder: HashedBowEncoder,
    depth: int = DEFAULT_DDE_DEPTH,
    slots: int = DEFAULT_DDE_SLOTS,
) -> QuestionFeatures:
    """Build the feature bundle of question ``q`` over its working graph ``g``."""
    tids = list(g.triple_ids)
    heads, relations, tails = (np.array(column, dtype=np.intp) for column in g.columns())
    entity_ids = np.unique(np.concatenate([heads, tails]))
    relation_ids = np.unique(relations)
    width = dde_width(depth)
    dde = np.zeros((len(entity_ids), slots, width))
    dde[:, :, [depth + 1, width - 1]] = 1.0  # an empty slot stays "unreachable"
    entities = entity_ids.tolist()
    for s, slot in enumerate(anchor_slots(set(q.query_entities), slots)):
        if slot:
            codes = compute_dde(g, slot, depth)
            dde[:, s] = np.array([codes[e] for e in entities]).reshape(-1, width)
    head = np.searchsorted(entity_ids, heads)
    relation = np.searchsorted(relation_ids, relations)
    tail = np.searchsorted(entity_ids, tails)
    return QuestionFeatures(
        tids=tids,
        entity_ids=entities,
        head=head,
        relation=relation,
        tail=tail,
        query=encoder(q.text),
        entity_text=_text_rows(encoder, [g.entity_label(e) for e in entities]),
        relation_text=_text_rows(encoder, [g.relation_label(r) for r in relation_ids.tolist()]),
        dde=dde,
        by_head=Segments(head, len(entities)),
        by_relation=Segments(relation, len(relation_ids)),
        by_tail=Segments(tail, len(entities)),
    )


class TripleFeatureBuilder:
    """The feature bundle the triple scorer reads for a question's working graph."""

    def __init__(
        self,
        g: KnowledgeGraph,
        q: Question,
        encoder: HashedBowEncoder,
        depth: int = DEFAULT_DDE_DEPTH,
        slots: int = DEFAULT_DDE_SLOTS,
    ):
        self.features = question_features(g, q, encoder, depth, slots)

    @property
    def dim(self) -> int:
        return self.features.triple_dim

    def matrix(self) -> tuple[list[int], QuestionFeatures]:
        """The visible triple ids and the bundle that scores them, in that order."""
        return self.features.tids, self.features
