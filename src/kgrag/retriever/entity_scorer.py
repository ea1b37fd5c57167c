"""Entity-level scorer: a degree-scaled message-passing network over the working graph.

Each layer sends a message along every edge in both directions (direction-
specific weights, relation embedding concatenated to the sender state) and
combines three smooth aggregation channels per node: mean, sum, and a
degree-amplified mean scaled by log(1+deg) normalized over the graph. Entity
positives are the entities appearing in the refined supervision triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import PipelineConfig
from ..kg import KnowledgeGraph, Question
from .features import HashedBowEncoder, QuestionFeatures, ViewTables, dde_width, question_features
from .triple_scorer import Scorer, weighted_bce_from_logits


def entity_positives(g: KnowledgeGraph, positives: set[int]) -> set[int]:
    """The heads and tails of the positive triple ids."""
    s = g.storage
    return {e for tid in positives for e in (s.head[tid], s.tail[tid])}


@dataclass
class GraphTensors(QuestionFeatures):
    """A question's feature bundle plus its node rows ``[entity text | DDE]``; the query row,
    which every node shares, is projected once. Node rows are the view's entities, and the
    view's :attr:`~ViewTables.messages` are the edges."""

    X: np.ndarray  # (V, F) node features after the query


def prepare_graph_tensors(
    g: KnowledgeGraph, q: Question, encoder: HashedBowEncoder, depth: int, slots: int
) -> GraphTensors:
    f = question_features(g, q, encoder, depth, slots)
    n, slots, width = f.dde.shape
    return GraphTensors(**vars(f), X=np.hstack([f.view.entity_text, f.dde.reshape(n, slots * width)]))


class Buffers:
    """Arrays a forward pass writes into, one per key, each grown to the most rows asked of it.

    :meth:`rows` hands out a contiguous prefix ``buf[:rows]``, which the next pass over
    the same buffers overwrites. Only numpy arrays are held: no view, graph or
    :class:`~.features.Messages` outlives the pass that used it.
    """

    def __init__(self) -> None:
        self.arrays: dict[object, np.ndarray] = {}

    def rows(self, key: object, rows: int, width: int) -> np.ndarray:
        buf = self.arrays.get(key)
        if buf is None or len(buf) < rows:
            buf = self.arrays[key] = np.empty((rows, width))
        return buf[:rows]


class EntityScorer(Scorer):
    """Message-passing scorer with a sigmoid head per entity."""

    kind = "entity"
    network = "mpnn"
    ARCH = {"input_dim": int, "rel_dim": int, "hidden": int, "depth": int}

    def __init__(
        self,
        input_dim: int,
        rel_dim: int,
        hidden: int,
        depth: int,
        encoder_tag: str,
        dde_depth: int,
        dde_slots: int,
        seed: int,
        rng: np.random.Generator | None = None,
    ):
        self.input_dim = input_dim
        self.rel_dim = rel_dim
        self.hidden = hidden
        self.depth = depth
        self.train_buffers = Buffers()  # filled on the first loss_and_grad, kept across steps
        super().__init__(encoder_tag, dde_depth, dde_slots, seed, rng)

    @staticmethod
    def input_widths(text_dim: int, dde_depth: int, dde_slots: int) -> dict[str, int]:
        """``input_dim`` is the width of a node's first-layer input ``[query | entity text | DDE]``,
        one DDE code per slot; ``rel_dim`` is the relation text's."""
        return {"input_dim": 2 * text_dim + dde_slots * dde_width(dde_depth), "rel_dim": text_dim}

    @staticmethod
    def config_arch(cfg: PipelineConfig) -> dict:
        return {"hidden": cfg.training.gnn_hidden, "depth": cfg.training.gnn_depth}

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        out, in_dim, h = [], self.input_dim, self.hidden
        for layer in range(self.depth):
            message = (in_dim + self.rel_dim, h)  # [sender state | relation text] -> message
            out += [(f"Wf{layer}", message), (f"bf{layer}", (h,)), (f"Wb{layer}", message)]
            out += [(f"bb{layer}", (h,)), (f"Wu{layer}", (in_dim + 3 * h, h)), (f"bu{layer}", (h,))]
            in_dim = h
        return out + [("w_out", (in_dim, 1)), ("b_out", (1,))]

    # -- forward / backward ---------------------------------------------------
    # A message is linear in [sender state | relation text] before its tanh, so
    # each table is projected once, for both directions side by side, and the
    # view's 2E messages gather their rows (see Messages). A layer's input is a
    # row ``b`` every node shares (the query at layer 0, empty after it) and
    # the node rows ``h``; ``b`` is projected once and broadcast.

    def _forward(self, gt: GraphTensors, buffers: Buffers | None = None, caches: list | None = None) -> np.ndarray:
        """The logits; each layer's inputs and outputs are appended to ``caches`` when it is given.

        Messages and layer inputs are written into ``buffers`` when they are given, and into
        new arrays otherwise."""

        def rows(key: object, n_rows: int, width: int) -> np.ndarray:
            return np.empty((n_rows, width)) if buffers is None else buffers.rows(key, n_rows, width)

        m, rel_text, H = gt.view.messages, gt.view.relation_text, self.hidden
        n_msg, b, h = len(m.sender), gt.query, gt.X
        for layer in range(self.depth):
            Wf, bf, Wb, bb, Wu, bu = self.params[6 * layer : 6 * layer + 6]
            n, d_h = len(b), h.shape[1]
            d = n + d_h
            W_sent = np.hstack([Wf[:d], Wb[:d]])
            # "clip" never clips, every index is in range (see Messages); "raise" copies through a temporary
            msg = rows(("msg", layer), n_msg, H)
            np.take((h @ W_sent[n:] + b @ W_sent[:n]).reshape(-1, H), m.sender, axis=0, out=msg, mode="clip")
            rel_proj = (rel_text @ np.hstack([Wf[d:], Wb[d:]]) + np.concatenate([bf, bb])).reshape(-1, H)
            msg += np.take(rel_proj, m.relation, axis=0, out=rows("scratch", n_msg, H), mode="clip")
            np.tanh(msg, out=msg)
            u_in = rows(("u_in", layer), len(h), d_h + 3 * H)  # [h | mean | total | amplified mean]
            u_in[:, :d_h] = h
            total = u_in[:, d_h + H : d_h + 2 * H]
            total[...] = m.by_recipient.sum(msg)
            mean = np.divide(total, m.denom, out=u_in[:, d_h : d_h + H])
            np.multiply(mean, m.scale, out=u_in[:, d_h + 2 * H :])
            h_out = np.tanh(u_in @ Wu[n:] + (b @ Wu[:n] + bu))
            if caches is not None:
                caches.append((b, h, W_sent, msg, u_in, h_out))
            b, h = b[:0], h_out
        w_out, b_out = self.params[-2], self.params[-1]
        return (h @ w_out).ravel() + b_out[0]

    def logits(self, gt: GraphTensors) -> np.ndarray:
        return self._forward(gt)  # new arrays per call: retrieve's worker threads score concurrently

    def scores(self, gt: GraphTensors) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.logits(gt)))

    def loss_and_grad(
        self, gt: GraphTensors, y: np.ndarray, pos_weight: float
    ) -> tuple[float, list[np.ndarray]]:
        """One training step's loss and gradients. Its messages and layer inputs go to the
        scorer's own buffers, which only ``fit``, single-threaded, reaches; no gradient
        returned shares memory with them."""
        caches: list = []
        loss, dz = weighted_bce_from_logits(self._forward(gt, self.train_buffers, caches), y, pos_weight)
        grads: list[np.ndarray | None] = [None] * len(self.params)
        h_last = caches[-1][-1]
        w_out = self.params[-2]
        grads[-2] = h_last.T @ dz[:, None]
        grads[-1] = np.array([dz.sum()])
        grad_h = dz[:, None] @ w_out.T.reshape(1, -1)
        m, rel_t, H = gt.view.messages, gt.view.relation_text.T, self.hidden
        dmsg = self.train_buffers.rows("scratch", len(m.recipient), H)

        def shared_rows(b: np.ndarray, h: np.ndarray, grad: np.ndarray) -> np.ndarray:
            """The gradient of ``W`` in ``h @ W[n:] + b @ W[:n]``, ``b`` broadcast over the rows."""
            return np.vstack([np.outer(b, grad.sum(axis=0)), h.T @ grad])

        for layer in reversed(range(self.depth)):
            Wu = self.params[6 * layer + 4]
            b, h_in, W_sent, msg, u_in, h_out = caches[layer]
            n, d_h = len(b), h_in.shape[1]
            dzu = grad_h * (1.0 - h_out * h_out)
            base = 6 * layer
            grads[base + 4] = shared_rows(b, u_in, dzu)
            grads[base + 5] = dzu.sum(axis=0)
            g_mean, g_total, g_amp = np.split(dzu @ Wu[n + d_h :].T, 3, axis=1)
            g_sum_all = g_total + (g_mean + g_amp * m.scale) / m.denom
            np.take(g_sum_all, m.recipient, axis=0, out=dmsg, mode="clip")
            msg *= msg  # tanh' = 1 - msg², in place: the cache is not read again
            np.subtract(1.0, msg, out=msg)
            dmsg *= msg
            d_sent = m.by_sender.sum(dmsg).reshape(-1, 2 * H)  # [forward | backward] per entity
            d_rel = m.by_relation.sum(dmsg).reshape(-1, 2 * H)
            g_sent, g_rel, g_bias = shared_rows(b, h_in, d_sent), rel_t @ d_rel, d_rel.sum(axis=0)
            grads[base + 0] = np.vstack([g_sent[:, :H], g_rel[:, :H]])
            grads[base + 1] = g_bias[:H]
            grads[base + 2] = np.vstack([g_sent[:, H:], g_rel[:, H:]])
            grads[base + 3] = g_bias[H:]
            if layer:  # the input features take no gradient
                grad_h = dzu @ Wu[:d_h].T + d_sent @ W_sent.T
        return loss, grads  # type: ignore[return-value]

    # -- inputs ----------------------------------------------------------------

    def inputs(self, g: KnowledgeGraph, q: Question) -> tuple[GraphTensors, list[int]]:
        """The graph tensors and the entity id of each node row, ascending."""
        gt = prepare_graph_tensors(g, q, self.encoder, self.dde_depth, self.dde_slots)
        return gt, gt.view.entity_ids

    @staticmethod
    def positive_ids(g: KnowledgeGraph, positives: set[int]) -> set[int]:
        return entity_positives(g, positives)


def entity_to_triple_scores(
    entity_scores: Sequence[tuple[int, float]] | dict[int, float],
    view: ViewTables,
) -> tuple[list[tuple[int, float]], dict[int, tuple[int, ...]]]:
    """Triple scores ``s(h,r,t) = p(h) + p(t)`` over the view ``view`` describes, with
    parallel relations merged.

    Triples sharing head and tail collapse to the smallest triple id. An entity
    with no score counts 0. Returns (scored representative triples in triple-id
    order, the other triple ids merged into each representative, ascending).
    """
    p = dict(entity_scores) if not isinstance(entity_scores, dict) else entity_scores
    scores = np.array([p.get(e, 0.0) for e in view.entity_ids], dtype=np.float64)
    reps = view.parallel
    return list(zip(reps.tids, (scores[reps.head] + scores[reps.tail]).tolist())), dict(reps.merged)
