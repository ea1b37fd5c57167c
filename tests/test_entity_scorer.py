import gc
import io
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgrag.config import PipelineConfig, TrainingSettings
from kgrag.retriever import (
    EntityScorer,
    HashedBowEncoder,
    TrainSample,
    ViewTables,
    entity_positives,
    entity_to_triple_scores,
    fit,
    load_model,
    save_model,
    top_k,
)
from kgrag.kg import load_kg
from kgrag.retriever.entity_scorer import prepare_graph_tensors
from kgrag.retriever.subgraph import relation_text
from kgrag.retriever.triple_scorer import sgd_step

import oracles
from conftest import graph_from_lines, make_question, parameter_vector, set_parameter_vector
from synth import separable_sample, star_graph_entity_sample

GNN_CFG = PipelineConfig(
    seed=42,
    text_dim=32,
    training=TrainingSettings(epochs=40, learning_rate=0.05, gnn_hidden=16, gnn_depth=3),
)


def test_entity_positives_from_triples():
    g = graph_from_lines("A r B", "C r D")
    positives = entity_positives(g, {0})
    assert positives == {g.entity_ids["A"], g.entity_ids["B"]}


def test_star_graph_training_reaches_full_recall():
    sample = star_graph_entity_sample()
    model = fit(EntityScorer, [sample], GNN_CFG)
    scored = model.score(sample.question, sample.graph)
    positives = entity_positives(sample.graph, sample.positives)
    ranked = sorted(scored, key=lambda pair: (-pair[1], pair[0]))[: len(positives)]
    assert {e for e, _ in ranked} == positives


def test_entity_training_rejects_zero_positives():
    g = graph_from_lines("A r B")
    q = make_question(g, ["A"], [], text="empty")
    with pytest.raises(ValueError, match="no positive"):
        fit(EntityScorer, [TrainSample(q, g, set())], GNN_CFG)


def test_entity_gradient_matches_central_differences():
    sample = star_graph_entity_sample()
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=0, gnn_hidden=8, gnn_depth=2))
    model = fit(EntityScorer, [sample], cfg)
    gt = prepare_graph_tensors(sample.graph, sample.question, model.encoder, cfg.dde_depth, cfg.dde_slots)
    positives = entity_positives(sample.graph, sample.positives)
    y = np.array([1.0 if e in positives else 0.0 for e in gt.view.entity_ids])
    _, grads = model.loss_and_grad(gt, y, pos_weight=3.0)
    flat_grad = np.concatenate([g.ravel() for g in grads])
    vec = parameter_vector(model)
    rng = np.random.default_rng(1)
    coords = rng.choice(vec.size, size=10, replace=False)
    h = 1e-6
    for c in coords:
        plus, minus = vec.copy(), vec.copy()
        plus[c] += h
        minus[c] -= h
        set_parameter_vector(model, plus)
        lp = model.loss_and_grad(gt, y, 3.0)[0]
        set_parameter_vector(model, minus)
        lm = model.loss_and_grad(gt, y, 3.0)[0]
        set_parameter_vector(model, vec)
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(numeric), abs(flat_grad[c]), 1e-8)
        assert abs(numeric - flat_grad[c]) / denom < 1e-4


def test_entity_training_bitwise_deterministic():
    sample = star_graph_entity_sample()
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=8, gnn_hidden=8, gnn_depth=2))
    m1 = fit(EntityScorer, [sample], cfg)
    m2 = fit(EntityScorer, [sample], cfg)
    for p1, p2 in zip(m1.params, m2.params):
        assert np.array_equal(p1, p2)


def test_entity_scores_in_range_and_deterministic():
    sample = star_graph_entity_sample()
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=5, gnn_hidden=8, gnn_depth=2))
    model = fit(EntityScorer, [sample], cfg)
    s1 = model.score(sample.question, sample.graph)
    s2 = model.score(sample.question, sample.graph)
    assert s1 == s2
    assert all(0.0 < s < 1.0 for _, s in s1)


def test_entity_to_triple_scores_formula():
    g = graph_from_lines("A r B")
    a, b = g.entity_ids["A"], g.entity_ids["B"]
    scored, merged = entity_to_triple_scores({a: 0.9, b: 0.2}, ViewTables(g, HashedBowEncoder(4)))
    assert scored == [(0, pytest.approx(1.1))]
    assert merged == {}


def test_entity_to_triple_scores_merges_parallel_relations():
    g = graph_from_lines("A r1 B", "A r2 B", "A r3 C")
    a, b, c = (g.entity_ids[x] for x in "ABC")
    scored, merged = entity_to_triple_scores({a: 0.5, b: 0.3, c: 0.1}, ViewTables(g, HashedBowEncoder(4)))
    assert [tid for tid, _ in scored] == [0, 2]
    assert merged == {0: (1,)}
    assert scored[0][1] == pytest.approx(0.8)


def test_entity_to_triple_scores_self_loop_doubles():
    g = graph_from_lines("A loop A")
    a = g.entity_ids["A"]
    scored, _ = entity_to_triple_scores({a: 0.4}, ViewTables(g, HashedBowEncoder(4)))
    assert scored == [(0, pytest.approx(0.8))]


def test_entity_model_save_load_round_trip(tmp_path):
    sample = star_graph_entity_sample()
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=3, gnn_hidden=8, gnn_depth=2))
    model = fit(EntityScorer, [sample], cfg)
    path = tmp_path / "entity.json"
    save_model(model, path)
    loaded = load_model(path, expected_encoder_tag=model.encoder_tag)
    assert loaded.score(sample.question, sample.graph) == model.score(sample.question, sample.graph)


def test_entity_scorer_empty_graph():
    sample = star_graph_entity_sample()
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=1, gnn_hidden=8, gnn_depth=2))
    model = fit(EntityScorer, [sample], cfg)
    empty = sample.graph.restrict([])
    assert model.score(sample.question, empty) == []


def _bits(scored) -> list[tuple[int, bytes]]:
    return [(tid, struct.pack("<d", score)) for tid, score in scored]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)), min_size=1, max_size=30),
    keep=st.lists(st.booleans(), min_size=30, max_size=30),
    levels=st.lists(st.sampled_from([None, 0.0, -0.0, 0.1, 0.2, 0.3, 0.5]), min_size=6, max_size=6),
    k=st.integers(1, 12),
)
@example(  # a self-loop, a parallel pair and a tie across rank 2
    rows=[(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 2), (2, 0, 0)], keep=[True] * 30,
    levels=[0.25, 0.5, 0.25, None, None, None], k=2,
)
def test_vectorised_ranking_matches_the_loop(rows, keep, levels, k):
    """Triple scores, merged labels and the top-k order equal the loop versions, bit for bit,
    on multigraphs with self-loops, parallel triples, scoped views and ties at rank k; merged
    ids compare through the relation labels they render."""
    g = load_kg(io.StringIO("\n".join(f"e{h}\trel{r}\te{t}" for h, r, t in rows)), "tsv")
    view = g.restrict([t for t in range(len(g)) if keep[t]])
    entity_scores = [
        (e, level) for e, level in enumerate(levels[: len(g.entities)]) if level is not None
    ]  # an entity with no score counts 0
    scored, merged = entity_to_triple_scores(entity_scores, ViewTables(view, HashedBowEncoder(2)))
    want_scored, want_merged = oracles.entity_to_triple_scores(entity_scores, view)
    assert _bits(scored) == _bits(want_scored)
    rendered = {rep: " | ".join(r for _, r, _ in g.triple_labels([rep, *ids])) for rep, ids in merged.items()}
    assert rendered == want_merged
    ranked = top_k(scored, k, merged)
    assert _bits((e.tid, e.score) for e in ranked) == _bits(oracles.top_k_order(want_scored, k))
    for e in ranked:
        assert relation_text(g, e) == want_merged.get(e.tid, g.relation_label(g.triple(e.tid).relation))


# -- the training step's buffers ----------------------------------------------------


def _training_inputs(model, sample):
    gt, ids = model.inputs(sample.graph, sample.question)
    positives = entity_positives(sample.graph, sample.positives)
    return gt, np.array([1.0 if e in positives else 0.0 for e in ids])


def _bytes(arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def test_buffered_training_step_matches_the_allocating_one_bit_for_bit():
    """Views that grow, shrink and grow the buffers, with scoring in between: every loss and
    gradient equals the step that allocates every array, scoring does not touch the buffers,
    and no gradient a step returned changes under a later step."""
    rng = np.random.default_rng(3)
    samples = [separable_sample(i, rng, n_triples=n)[0] for i, n in enumerate([60, 15, 100, 60])]
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=0, gnn_hidden=8, gnn_depth=3))
    model = fit(EntityScorer, samples, cfg)
    inputs = [_training_inputs(model, s) for s in samples]
    returned = []
    for step, (gt, y) in enumerate(inputs):
        want_loss, want_grads = oracles.allocating_entity_loss_and_grad(model, gt, y, 3.0)
        loss, grads = model.loss_and_grad(gt, y, 3.0)
        assert struct.pack("<d", loss) == struct.pack("<d", want_loss)
        assert [g.shape for g in grads] == [g.shape for g in want_grads]
        assert _bytes(grads) == _bytes(want_grads)
        returned.append((grads, _bytes(grads)))
        other = inputs[(step + 1) % len(inputs)][0]  # a view of another size, scored between steps
        want_scores = 1.0 / (1.0 + np.exp(-oracles.allocating_entity_forward(model, other)))
        buffered = _bytes(model.train_buffers.arrays.values())
        assert model.scores(other).tobytes() == want_scores.tobytes()
        assert _bytes(model.train_buffers.arrays.values()) == buffered  # scoring leaves them alone
        sgd_step(model.params, grads, 0.05)
    for grads, kept in returned:
        assert _bytes(grads) == kept


def test_fit_keeps_one_buffer_set_sized_to_the_largest_view():
    """The buffers hold only numpy arrays of their own, one set for the scorer, as many rows as
    the largest view needs, and go with the scorer."""
    rng = np.random.default_rng(5)
    samples = [separable_sample(i, rng, n_triples=n)[0] for i, n in enumerate([30, 90, 50])]
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=2, gnn_hidden=8, gnn_depth=2))
    model = fit(EntityScorer, samples, cfg)
    views = [model.inputs(s.graph, s.question)[0].view for s in samples]
    most_messages = max(2 * len(v.tids) for v in views)
    most_entities = max(len(v.entity_ids) for v in views)
    assert most_messages != 2 * len(views[-1].tids)  # the largest view is not the last one seen
    buffers = model.train_buffers
    assert list(vars(buffers)) == ["arrays"]
    width = model.input_dim - model.rel_dim  # a node row: [entity text | DDE]
    assert {key: buf.shape for key, buf in buffers.arrays.items()} == {
        "scratch": (most_messages, 8),
        ("msg", 0): (most_messages, 8),
        ("msg", 1): (most_messages, 8),
        ("u_in", 0): (most_entities, width + 3 * 8),
        ("u_in", 1): (most_entities, 8 + 3 * 8),
    }
    for buf in buffers.arrays.values():
        assert type(buf) is np.ndarray and buf.base is None and buf.dtype == np.float64
    alive = [weakref.ref(buf) for buf in buffers.arrays.values()]
    del model, buffers, buf
    gc.collect()
    assert [ref() for ref in alive] == [None] * len(alive)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)), min_size=1, max_size=30),
    keep=st.lists(st.booleans(), min_size=30, max_size=30),
)
@example(rows=[(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 2), (2, 0, 0)], keep=[True] * 30)  # a self-loop, a parallel pair
def test_message_indices_stay_in_range(rows, keep):
    """The training step gathers with ``mode="clip"``, which would clip an index out of range
    where fancy indexing raised; on every view each message index is in range, so none clips."""
    g = load_kg(io.StringIO("\n".join(f"e{h}\trel{r}\te{t}" for h, r, t in rows)), "tsv")
    view = ViewTables(g.restrict([t for t in range(len(g)) if keep[t]]), HashedBowEncoder(2))
    m, n_entities, n_relations = view.messages, len(view.entity_ids), len(view.relation_labels)
    for index, bound in ((m.sender, 2 * n_entities), (m.relation, 2 * n_relations), (m.recipient, n_entities)):
        assert len(index) == 2 * len(view.tids)
        assert np.all((0 <= index) & (index < bound))
