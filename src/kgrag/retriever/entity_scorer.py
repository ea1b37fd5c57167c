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

from ..kg import KnowledgeGraph, Question, Triple
from .features import QuestionFeatures, TextEncoder, dde_width, question_features
from .triple_scorer import Scorer, TrainConfig, TrainSample, fit, weighted_bce_from_logits


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
    encoder: TextEncoder,
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

    def input_widths(self, text_dim: int) -> dict[str, int]:
        """``input_dim`` is the width of :meth:`QuestionFeatures.entity_matrix`: query and entity
        text and one DDE code per slot; ``rel_dim`` is the relation text's."""
        return {"input_dim": 2 * text_dim + self.dde_slots * dde_width(self.dde_depth), "rel_dim": text_dim}

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

    # -- training hooks (see fit) ---------------------------------------------

    @staticmethod
    def sample_inputs(
        sample: TrainSample, config: TrainConfig, encoder: TextEncoder
    ) -> tuple[GraphTensors, list[int], set[int]]:
        """Graph tensors, the entity id of each node row, and the positive entity ids."""
        question, graph, positives = sample
        gt = prepare_graph_tensors(graph, question, encoder, config.dde_depth, config.dde_slots)
        return gt, gt.entity_ids, entity_positives(positives)

    @staticmethod
    def arch_kwargs(gt: GraphTensors, config: TrainConfig, encoder: TextEncoder) -> dict:
        return {
            "input_dim": gt.X.shape[1],
            "rel_dim": encoder.dim,
            "hidden": config.gnn_hidden,
            "depth": config.gnn_depth,
        }


def train_entity_scorer(
    samples: Sequence[TrainSample],
    config: TrainConfig = TrainConfig(),
    val_samples: Sequence[TrainSample] | None = None,
    encoder: TextEncoder | None = None,
) -> EntityScorer:
    """Train the entity scorer with :func:`fit` (same loop and checkpoint rule as triples)."""
    return fit(EntityScorer, samples, config, val_samples, encoder)


def score_entities(
    model: EntityScorer,
    q: Question,
    g: KnowledgeGraph,
    encoder: TextEncoder | None = None,
) -> list[tuple[int, float]]:
    """One score per entity incident to a visible triple, ascending entity id."""
    encoder = model.checked_encoder(encoder)
    gt = prepare_graph_tensors(g, q, encoder, model.dde_depth, model.dde_slots)
    if not gt.entity_ids:
        return []
    return list(zip(gt.entity_ids, model.scores(gt).tolist()))


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
