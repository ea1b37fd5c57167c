"""Contracts shared by both scorers: checkpoint selection and view-local features."""

import io
from dataclasses import replace

import numpy as np
import pytest

from kgrag.kg import Question, load_kg
from kgrag.retriever import (
    HashedBowEncoder,
    TrainConfig,
    TrainSample,
    TripleFeatureBuilder,
    anchor_slots,
    compute_dde,
    entity_positives,
    score_entities,
    score_triples,
    train_entity_scorer,
    train_triple_scorer,
)
from kgrag.retriever.entity_scorer import prepare_graph_tensors
from kgrag.retriever.triple_scorer import recall_at_k

from oracles import directed_distance
from synth import separable_corpus


def triple_recall(model, samples, encoder, k):
    total = 0.0
    for question, graph, positives in samples:
        pos_tids = {tid for tid, tr in graph.iter_triples() if tr in positives}
        total += recall_at_k(score_triples(model, question, graph, encoder), pos_tids, k)
    return total / len(samples)


def entity_recall(model, samples, encoder, k):
    total = 0.0
    for question, graph, positives in samples:
        scored = score_entities(model, question, graph, encoder)
        total += recall_at_k(scored, entity_positives(positives), k)
    return total / len(samples)


@pytest.mark.parametrize(
    "train, recall",
    [(train_triple_scorer, triple_recall), (train_entity_scorer, entity_recall)],
    ids=["triple", "entity"],
)
def test_checkpoint_is_earliest_epoch_with_best_validation_recall(train, recall):
    # training supervision is corrupted with decoys, so validation recall moves
    corpus = separable_corpus(n_questions=6, n_triples=30, n_pos=4, n_decoys=3, seed=0)
    train_samples = [TrainSample(s.question, s.graph, s.positives | d) for s, d in corpus[:4]]
    val_samples = [s for s, _ in corpus[4:]]
    cfg = TrainConfig(
        seed=0, epochs=8, learning_rate=1.0, hidden=(8, 8), text_dim=16,
        recall_k=2, gnn_hidden=8, gnn_depth=2,
    )
    encoder = HashedBowEncoder(cfg.text_dim)
    selected = train(train_samples, cfg, val_samples=val_samples, encoder=encoder)

    per_epoch = []
    for epochs in range(1, cfg.epochs + 1):
        model = train(train_samples, replace(cfg, epochs=epochs), encoder=encoder)
        per_epoch.append((recall(model, val_samples, encoder, cfg.recall_k), model))
    best = max(r for r, _ in per_epoch)
    earliest = next(i for i, (r, _) in enumerate(per_epoch) if r == best)
    # selection must matter here: the best recall is reached more than once,
    # and the earliest epoch that reaches it is not the last one
    assert earliest < cfg.epochs - 1
    assert sum(1 for r, _ in per_epoch if r == best) > 1
    for got, want in zip(selected.params, per_epoch[earliest][1].params):
        assert np.array_equal(got, want)
    assert selected.epoch_losses == per_epoch[-1][1].epoch_losses


def random_scoped_case(rng):
    n_entities = int(rng.integers(4, 40))
    rows = [
        f"e{rng.integers(0, n_entities)}\trel{rng.integers(0, 5)}\te{rng.integers(0, n_entities)}"
        for _ in range(int(rng.integers(3, 200)))
    ]
    g = load_kg(io.StringIO("\n".join(rows)), "tsv")
    scope = [t for t in range(len(g)) if rng.random() < 0.4]
    query = rng.choice(len(g.entities), size=int(rng.integers(1, 5)), replace=False)
    q = Question("q", "random question", frozenset(int(e) for e in query), frozenset(), frozenset(scope))
    return g.restrict(scope), q


def expected_buckets(view, q, slots, depth):
    """Per slot, (forward, backward) bucket of every view entity, from the oracle."""
    edges = [(tid, tr.head, tr.tail) for tid, tr in view.iter_triples()]
    unreachable = depth + 1
    out = []
    for slot in anchor_slots(set(q.query_entities), slots):
        fwd = directed_distance(edges, slot, reverse=False) if slot else {}
        bwd = directed_distance(edges, slot, reverse=True) if slot else {}
        out.append(
            {
                e: (
                    min(fwd[e], depth) if e in fwd else unreachable,
                    min(bwd[e], depth) if e in bwd else unreachable,
                )
                for e in {e for _, h, t in edges for e in (h, t)}
            }
        )
    return out


def decode_blocks(row: np.ndarray, n_blocks: int, depth: int) -> list[int]:
    blocks = row.reshape(n_blocks, depth + 2)
    assert np.array_equal(blocks.sum(axis=1), np.ones(n_blocks))
    return [int(b) for b in blocks.argmax(axis=1)]


def test_scope_local_features_match_oracle_on_random_scopes():
    rng = np.random.default_rng(31)
    depth, slots, dim = 2, 3, 8
    encoder = HashedBowEncoder(dim)
    for _ in range(20):
        view, q = random_scoped_case(rng)
        view_entities = {e for _, tr in view.iter_triples() for e in (tr.head, tr.tail)}
        want = expected_buckets(view, q, slots, depth)

        tids, X = TripleFeatureBuilder(view, q, encoder, depth, slots).matrix()
        assert tids == list(view.triple_ids)
        for tid, row in zip(tids, X):
            tr = view.triple(tid)
            labels = [
                q.text,
                view.entity_label(tr.head),
                view.relation_label(tr.relation),
                view.entity_label(tr.tail),
            ]
            assert np.array_equal(row[: 4 * dim], np.concatenate([encoder(t) for t in labels]))
            got = decode_blocks(row[4 * dim :], 4 * slots, depth)
            for s in range(slots):
                assert got[4 * s : 4 * s + 4] == [*want[s][tr.head], *want[s][tr.tail]]

        gt = prepare_graph_tensors(view, q, encoder, depth, slots)
        assert gt.node_ids == sorted(view_entities)
        for e, row in zip(gt.node_ids, gt.X):
            text = np.concatenate([encoder(q.text), encoder(view.entity_label(e))])
            assert np.array_equal(row[: 2 * dim], text)
            got = decode_blocks(row[2 * dim :], 2 * slots, depth)
            assert got == [b for s in range(slots) for b in want[s][e]]
        for i, (_, tr) in enumerate(view.iter_triples()):
            assert (gt.node_ids[gt.edge_src[i]], gt.node_ids[gt.edge_dst[i]]) == (tr.head, tr.tail)
            assert np.array_equal(gt.R[i], encoder(view.relation_label(tr.relation)))

        for slot in anchor_slots(set(q.query_entities), slots):
            if slot:
                assert set(compute_dde(view, slot, depth)) == view_entities
