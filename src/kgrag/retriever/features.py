"""Query/triple text embeddings and directional distance encoding (DDE).

The text encoder is a hashed bag-of-tokens: stable across runs and
processes, no model weights involved. It encodes a whole table of texts in
one call and caches each token's bucket, not each text's row. DDE records,
for every entity of the question's working graph, the forward BFS hop
distance (following edge direction) and the backward distance from an
anchor set, each capped at the configured depth with a separate
"unreachable" bucket, one-hot encoded.
"""

from __future__ import annotations

import hashlib
import re
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from ..kg import KnowledgeGraph, Question, hop_distances

_TOKEN = re.compile(r"\w+")

DEFAULT_DDE_DEPTH = 3
DEFAULT_DDE_SLOTS = 3


class HashedBowEncoder:
    """L2-normalized hashed bag-of-tokens into a fixed dimension.

    A token's bucket is the first 8 bytes of its md5 digest, big-endian,
    modulo ``dim``; it is hashed on first sight and kept. Threads may share
    an encoder: two threads that hash one token store the same bucket.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.tag = f"hashed-bow-{dim}"
        self._buckets: dict[str, int] = {}  # token -> bucket

    @classmethod
    def from_tag(cls, tag: str) -> "HashedBowEncoder":
        """The encoder whose ``tag`` this is; any other tag raises ``ValueError``."""
        match = re.fullmatch(r"hashed-bow-([1-9][0-9]*)", tag)
        if match is None:
            raise ValueError(f"unknown encoder {tag!r}")
        return cls(int(match[1]))

    def __call__(self, text: str) -> np.ndarray:
        """The text's embedding; empty text gives the zero vector."""
        return self.encode_many([text])[0]

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        """``(len(texts), dim)`` embeddings, one row per text, in one pass over the table.

        Counts are small integers, so each row's sum of squares is exact in
        any order, and the rows are bitwise those of encoding one text at a time.
        """
        tokens = [_TOKEN.findall(text.lower()) for text in texts]
        flat = list(chain.from_iterable(tokens))
        buckets = self._buckets
        for token in set(flat):
            if token not in buckets:
                digest = hashlib.md5(token.encode("utf-8")).digest()
                buckets[token] = int.from_bytes(digest[:8], "big") % self.dim
        rows = np.repeat(np.arange(len(texts)), [len(t) for t in tokens])
        cols = np.fromiter(map(buckets.__getitem__, flat), dtype=np.intp, count=len(flat))
        counts = np.bincount(rows * self.dim + cols, minlength=len(texts) * self.dim)
        vecs = counts.reshape(len(texts), self.dim).astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
        nonzero = norms > 0
        vecs[nonzero] /= norms[nonzero, None]
        return vecs


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
    buckets = np.empty((len(entities), 2), dtype=np.intp)
    for col, direction in enumerate(("out", "in")):
        dist = hop_distances(g, anchors, direction)
        buckets[:, col] = [min(dist[e], depth) if e in dist else depth + 1 for e in entities]
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


# -- the per-view tables and the per-question bundle ---------------------------


class Segments:
    """Rows grouped by an integer key, for sums over each group.

    ``np.bincount`` adds its weights in input order, so each group's sum adds
    its rows in row order, one after another, and its bits do not depend on
    which thread sums them. The flat index of a row width is built on its
    first sum and kept.
    """

    def __init__(self, keys: np.ndarray, size: int):
        self.keys = keys
        self.size = size  # number of keys; a key no row has sums to zero
        self._flat: dict[int, np.ndarray] = {}

    def sum(self, rows: np.ndarray) -> np.ndarray:
        """``out[k] = rows[keys == k].sum(axis=0)`` for every key ``k < size``, added left to right."""
        width = rows.shape[1]
        if not len(rows):
            return np.zeros((self.size, width))
        flat = self._flat.get(width)
        if flat is None:
            flat = self._flat[width] = (self.keys[:, None] * width + np.arange(width)).ravel()
        return np.bincount(flat, weights=rows.ravel(), minlength=self.size * width).reshape(self.size, width)


class Messages:
    """A view's triples as ``2E`` directed messages for message passing.

    Message ``i < E`` runs forward along triple row ``i``, head to tail, and
    message ``E + i`` backward, tail to head. A message reads row ``sender[i]``
    of a per-entity projection stacked as ``[forward; backward]`` per entity
    (row ``2v`` is entity ``v``'s forward projection, ``2v + 1`` its backward
    one), row ``relation[i]`` of a per-relation projection stacked the same
    way, and is summed into entity row ``recipient[i]``.
    """

    def __init__(self, view: ViewTables):
        n_entities = len(view.entity_ids)
        self.sender = np.concatenate([2 * view.head, 2 * view.tail + 1])
        self.relation = np.concatenate([2 * view.relation, 2 * view.relation + 1])
        self.recipient = np.concatenate([view.tail, view.head])
        self.by_sender = Segments(self.sender, 2 * n_entities)
        self.by_relation = Segments(self.relation, 2 * len(view.relation_labels))
        self.by_recipient = Segments(self.recipient, n_entities)
        degree = np.bincount(self.recipient, minlength=n_entities).astype(np.float64)
        log_deg = np.log1p(degree)
        norm = float(log_deg.mean()) if len(log_deg) and log_deg.mean() > 0 else 1.0
        self.denom = np.clip(degree, 1.0, None)[:, None]  # (V, 1) message count, at least 1
        self.scale = (log_deg / norm)[:, None]  # (V, 1) log(1+deg) / mean(log(1+deg))


class ParallelTriples(NamedTuple):
    """One representative per (head, tail) pair of a view: its first triple."""

    tids: list[int]  # representative triple ids, ascending
    head: np.ndarray  # local entity row of each representative's head
    tail: np.ndarray
    merged: dict[int, tuple[int, ...]]  # representative id -> the other triple ids of its pair, ascending


class ViewTables:
    """The part of a question's features that depends on its working graph only.

    Triples are local rows in load order; entities and relations are local
    rows in ascending id order, and ``head``/``relation``/``tail`` index them.
    Every question over one view shares one instance, through :meth:`of`;
    :attr:`messages` and :attr:`parallel` are built on first use.
    """

    # view -> text width -> its tables; an entry goes with its view
    _by_view: weakref.WeakKeyDictionary[KnowledgeGraph, dict[int, ViewTables]] = weakref.WeakKeyDictionary()

    @classmethod
    def of(cls, g: KnowledgeGraph, encoder: HashedBowEncoder) -> ViewTables:
        """The tables of view ``g`` at ``encoder``'s width, built on the first call. Two threads
        that race build equal tables, and both get the one kept."""
        by_dim = cls._by_view.setdefault(g, {})
        if encoder.dim not in by_dim:
            by_dim.setdefault(encoder.dim, cls(g, encoder))
        return by_dim[encoder.dim]

    def __init__(self, g: KnowledgeGraph, encoder: HashedBowEncoder):
        self.tids = list(g.triple_ids)  # visible triple ids
        heads, relations, tails = (np.array(column, dtype=np.intp) for column in g.columns())
        entity_ids = np.unique(np.concatenate([heads, tails]))
        relation_ids = np.unique(relations)
        self.entity_ids: list[int] = entity_ids.tolist()  # the view's entities, ascending
        self.relation_labels = [g.relation_label(r) for r in relation_ids.tolist()]
        self.head = np.searchsorted(entity_ids, heads)  # (E,) local entity row per triple
        self.relation = np.searchsorted(relation_ids, relations)  # (E,) local relation row per triple
        self.tail = np.searchsorted(entity_ids, tails)
        self.entity_text = encoder.encode_many([g.entity_label(e) for e in self.entity_ids])  # (V, T)
        self.relation_text = encoder.encode_many(self.relation_labels)  # (R, T)

    @cached_property
    def messages(self) -> Messages:
        return Messages(self)

    @cached_property
    def parallel(self) -> ParallelTriples:
        pair = self.head * len(self.entity_ids) + self.tail
        _, first, group = np.unique(pair, return_index=True, return_inverse=True)
        reps = np.sort(first)
        merged: dict[int, list[int]] = {}
        for row in np.flatnonzero(first[group] != np.arange(len(pair))).tolist():  # rows, like ids, ascend
            merged.setdefault(self.tids[first[group[row]]], []).append(self.tids[row])
        return ParallelTriples(
            [self.tids[row] for row in reps.tolist()], self.head[reps], self.tail[reps],
            {rep: tuple(others) for rep, others in merged.items()},
        )


@dataclass
class QuestionFeatures:
    """Everything both scorers read for one question: its view's tables, its query row and its DDE.

    The scorers never build a row per triple: they project the entity and
    relation tables once and gather the projections by the view's indices.
    """

    view: ViewTables
    query: np.ndarray  # (T,) query text
    dde: np.ndarray  # (V, slots, 2 * (depth + 2)) one-hot [forward | backward] per slot

    @property
    def triple_dim(self) -> int:
        """Width of a triple's input ``[query | head | relation | tail text | DDE]``;
        per anchor slot, its DDE holds the head's and then the tail's code."""
        _, slots, width = self.dde.shape
        return 4 * len(self.query) + 2 * slots * width


def question_features(
    g: KnowledgeGraph,
    q: Question,
    encoder: HashedBowEncoder,
    depth: int = DEFAULT_DDE_DEPTH,
    slots: int = DEFAULT_DDE_SLOTS,
) -> QuestionFeatures:
    """The feature bundle of question ``q`` over its working graph ``g``."""
    view = ViewTables.of(g, encoder)
    width = dde_width(depth)
    dde = np.zeros((len(view.entity_ids), slots, width))
    dde[:, :, [depth + 1, width - 1]] = 1.0  # an empty slot stays "unreachable"
    for s, slot in enumerate(anchor_slots(set(q.query_entities), slots)):
        if slot:
            # its keys are the view's entities in ascending id, as are view.entity_ids
            dde[:, s] = np.array(list(compute_dde(g, slot, depth).values())).reshape(-1, width)
    return QuestionFeatures(view=view, query=encoder(q.text), dde=dde)


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
        return self.features.view.tids, self.features
