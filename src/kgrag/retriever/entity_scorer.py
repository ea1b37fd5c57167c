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
from ..kg import KnowledgeGraph, Question, Triple
from .features import HashedBowEncoder, QuestionFeatures, dde_width, question_features
from .triple_scorer import Scorer, weighted_bce_from_logits


def entity_positives(positives: set[Triple]) -> set[int]:
    """Entities appearing in the positive triple set (heads and tails)."""
    out: set[int] = set()
    for h, _, t in positives:
        out.add(h)
        out.add(t)
    return out


@dataclass
class GraphTensors(QuestionFeatures):
    """A question's feature bundle plus the per-node arrays the network runs on.

    Node rows are the bundle's entities, and each triple is an edge from its
    head to its tail.
    """

    X: np.ndarray  # (V, F) node features
    degree: np.ndarray  # (V,) message count per node
    scale: np.ndarray  # (V,) log(1+deg) / mean(log(1+deg))


def prepare_graph_tensors(
    g: KnowledgeGraph,
    q: Question,
    encoder: HashedBowEncoder,
    depth: int,
    slots: int,
) -> GraphTensors:
    f = question_features(g, q, encoder, depth, slots)
    recipients = np.concatenate([f.tail, f.head])
    degree = np.bincount(recipients, minlength=len(f.entity_ids)).astype(np.float64)
    log_deg = np.log1p(degree)
    norm = float(log_deg.mean()) if len(log_deg) and log_deg.mean() > 0 else 1.0
    return GraphTensors(**vars(f), X=f.entity_matrix(), degree=degree, scale=log_deg / norm)


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
        super().__init__(encoder_tag, dde_depth, dde_slots, seed, rng)

    @staticmethod
    def input_widths(text_dim: int, dde_depth: int, dde_slots: int) -> dict[str, int]:
        """``input_dim`` is the width of :meth:`QuestionFeatures.entity_matrix`: query and entity
        text and one DDE code per slot; ``rel_dim`` is the relation text's."""
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
    # each table is projected once and gathered per edge (see QuestionFeatures).

    def _forward(self, gt: GraphTensors) -> tuple[np.ndarray, list]:
        h = gt.X
        caches = []
        denom = np.clip(gt.degree, 1.0, None)[:, None]
        for layer in range(self.depth):
            Wf, bf, Wb, bb, Wu, bu = self.params[6 * layer : 6 * layer + 6]
            d = h.shape[1]
            mf = np.tanh((h @ Wf[:d])[gt.head] + (gt.relation_text @ Wf[d:])[gt.relation] + bf)
            mb = np.tanh((h @ Wb[:d])[gt.tail] + (gt.relation_text @ Wb[d:])[gt.relation] + bb)
            total = gt.by_tail.sum(mf) + gt.by_head.sum(mb)  # forward messages reach the tail
            mean = total / denom
            amp = mean * gt.scale[:, None]
            u_in = np.concatenate([h, mean, total, amp], axis=1)
            h_out = np.tanh(u_in @ Wu + bu)
            caches.append((h, mf, mb, u_in, h_out))
            h = h_out
        w_out, b_out = self.params[-2], self.params[-1]
        logits = (h @ w_out).ravel() + b_out[0]
        return logits, caches

    def logits(self, gt: GraphTensors) -> np.ndarray:
        return self._forward(gt)[0]

    def scores(self, gt: GraphTensors) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.logits(gt)))

    def loss_and_grad(
        self, gt: GraphTensors, y: np.ndarray, pos_weight: float
    ) -> tuple[float, list[np.ndarray]]:
        logits, caches = self._forward(gt)
        loss, dz = weighted_bce_from_logits(logits, y, pos_weight)
        grads: list[np.ndarray | None] = [None] * len(self.params)
        h_last = caches[-1][-1]
        w_out = self.params[-2]
        grads[-2] = h_last.T @ dz[:, None]
        grads[-1] = np.array([dz.sum()])
        grad_h = dz[:, None] @ w_out.T.reshape(1, -1)
        denom = np.clip(gt.degree, 1.0, None)[:, None]
        rel_t = gt.relation_text.T
        for layer in reversed(range(self.depth)):
            Wf, bf, Wb, bb, Wu, bu = self.params[6 * layer : 6 * layer + 6]
            h_in, mf, mb, u_in, h_out = caches[layer]
            dzu = grad_h * (1.0 - h_out * h_out)
            base = 6 * layer
            grads[base + 4] = u_in.T @ dzu
            grads[base + 5] = dzu.sum(axis=0)
            grad_u_in = dzu @ Wu.T
            d = h_in.shape[1]
            splits = [d, d + self.hidden, d + 2 * self.hidden]
            g_h, g_mean, g_total, g_amp = np.split(grad_u_in, splits, axis=1)
            g_sum_all = g_total + (g_mean + g_amp * gt.scale[:, None]) / denom
            dzf = g_sum_all[gt.tail] * (1.0 - mf * mf)
            dzb = g_sum_all[gt.head] * (1.0 - mb * mb)
            dzf_by_head, dzb_by_tail = gt.by_head.sum(dzf), gt.by_tail.sum(dzb)
            grads[base + 0] = np.vstack([h_in.T @ dzf_by_head, rel_t @ gt.by_relation.sum(dzf)])
            grads[base + 1] = dzf.sum(axis=0)
            grads[base + 2] = np.vstack([h_in.T @ dzb_by_tail, rel_t @ gt.by_relation.sum(dzb)])
            grads[base + 3] = dzb.sum(axis=0)
            if layer:  # the input features take no gradient
                grad_h = g_h + dzf_by_head @ Wf[:d].T + dzb_by_tail @ Wb[:d].T
        return loss, grads  # type: ignore[return-value]

    # -- inputs ----------------------------------------------------------------

    def inputs(self, g: KnowledgeGraph, q: Question) -> tuple[GraphTensors, list[int]]:
        """The graph tensors and the entity id of each node row, ascending."""
        gt = prepare_graph_tensors(g, q, self.encoder, self.dde_depth, self.dde_slots)
        return gt, gt.entity_ids

    @staticmethod
    def positive_ids(g: KnowledgeGraph, positives: set[Triple]) -> set[int]:
        return entity_positives(positives)


def entity_to_triple_scores(
    entity_scores: Sequence[tuple[int, float]] | dict[int, float],
    g: KnowledgeGraph,
) -> tuple[list[tuple[int, float]], dict[int, str]]:
    """Triple scores ``s(h,r,t) = p(h) + p(t)`` with parallel relations merged.

    Triples sharing head and tail collapse to the smallest triple id; their
    relation labels join with " | ". Returns (scored representative triples in
    triple-id order, merged relation label per representative).
    """
    p = dict(entity_scores) if not isinstance(entity_scores, dict) else entity_scores
    by_pair: dict[tuple[int, int], list[int]] = {}
    heads, _, tails = g.columns()
    for tid, pair in zip(g.triple_ids, zip(heads, tails)):
        by_pair.setdefault(pair, []).append(tid)
    scored: list[tuple[int, float]] = []
    merged_labels: dict[int, str] = {}
    for (h, t), tids in sorted(by_pair.items(), key=lambda kv: kv[1][0]):
        rep = tids[0]
        score = p.get(h, 0.0) + p.get(t, 0.0)
        scored.append((rep, score))
        if len(tids) > 1:
            merged_labels[rep] = " | ".join(
                g.relation_label(g.triple(tid).relation) for tid in tids
            )
    return scored, merged_labels
