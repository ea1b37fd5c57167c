import json

import numpy as np
import pytest

from kgrag.config import PipelineConfig, TrainingSettings
from kgrag.retriever import (
    HashedBowEncoder,
    ModelFormatError,
    TrainSample,
    TripleFeatureBuilder,
    TripleScorer,
    fit,
    load_model,
    save_model,
    top_k,
)
from kgrag.retriever.triple_scorer import recall_at_k

from conftest import graph_from_lines, make_question, parameter_vector, set_parameter_vector
from synth import separable_corpus

FAST = PipelineConfig(
    seed=42,
    text_dim=64,
    training=TrainingSettings(epochs=60, learning_rate=0.05, hidden=(64, 64)),
)


def corpus_samples(**kwargs):
    return [sample for sample, _ in separable_corpus(**kwargs)]


def held_out_recall(model, samples, k=5):
    total = 0.0
    for question, graph, positives in samples:
        total += recall_at_k(model.score(question, graph), positives, k)
    return total / len(samples)


def test_training_reaches_perfect_heldout_recall():
    samples = corpus_samples(n_questions=50, seed=0)
    model = fit(TripleScorer, samples[:40], FAST)
    assert held_out_recall(model, samples[40:]) == 1.0


def test_zero_epochs_scores_near_half():
    samples = corpus_samples(n_questions=2, seed=1)
    cfg = PipelineConfig(seed=42, text_dim=32, training=TrainingSettings(epochs=0, hidden=(32, 32)))
    model = fit(TripleScorer, samples, cfg)
    question, graph, _ = samples[0]
    scores = np.array([s for _, s in model.score(question, graph)])
    assert np.all(np.abs(scores - 0.5) < 0.05)


def test_training_rejects_zero_positive_sample():
    g = graph_from_lines("A r1 B")
    q = make_question(g, ["A"], [], text="no positives")
    with pytest.raises(ValueError, match="no positive"):
        fit(TripleScorer, [TrainSample(q, g, set())], FAST)


def test_gradient_matches_central_differences():
    samples = corpus_samples(n_questions=1, n_triples=12, seed=3)
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=0, hidden=(8, 8)))
    model = fit(TripleScorer, samples, cfg)
    question, graph, positives = samples[0]
    builder = TripleFeatureBuilder(graph, question, model.encoder, cfg.dde_depth, cfg.dde_slots)
    tids, X = builder.matrix()
    y = np.array([1.0 if t in positives else 0.0 for t in tids])
    _, grads = model.loss_and_grad(X, y, pos_weight=2.0)
    flat_grad = np.concatenate([g.ravel() for g in grads])
    vec = parameter_vector(model)
    rng = np.random.default_rng(0)
    coords = rng.choice(vec.size, size=10, replace=False)
    h = 1e-6
    for c in coords:
        plus = vec.copy()
        plus[c] += h
        minus = vec.copy()
        minus[c] -= h
        set_parameter_vector(model, plus)
        lp = model.loss_and_grad(X, y, 2.0)[0]
        set_parameter_vector(model, minus)
        lm = model.loss_and_grad(X, y, 2.0)[0]
        set_parameter_vector(model, vec)
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(numeric), abs(flat_grad[c]), 1e-8)
        assert abs(numeric - flat_grad[c]) / denom < 1e-4


def test_training_bitwise_deterministic():
    samples = corpus_samples(n_questions=4, seed=5)
    cfg = PipelineConfig(seed=42, text_dim=32, training=TrainingSettings(epochs=10, hidden=(16, 16)))
    m1 = fit(TripleScorer, samples, cfg)
    m2 = fit(TripleScorer, samples, cfg)
    for p1, p2 in zip(m1.params, m2.params):
        assert np.array_equal(p1, p2)


def test_epoch_loss_mostly_non_increasing():
    samples = corpus_samples(n_questions=10, seed=7)
    model = fit(TripleScorer, samples, FAST)
    losses = model.epoch_losses[5:]
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
    assert increases <= 1


def test_score_triples_deterministic_and_in_range():
    samples = corpus_samples(n_questions=2, seed=9)
    cfg = PipelineConfig(seed=42, text_dim=32, training=TrainingSettings(epochs=5, hidden=(16, 16)))
    model = fit(TripleScorer, samples, cfg)
    question, graph, _ = samples[0]
    s1 = model.score(question, graph)
    s2 = model.score(question, graph)
    assert s1 == s2
    assert all(0.0 < score < 1.0 for _, score in s1)


def test_score_triples_empty_view():
    samples = corpus_samples(n_questions=1, seed=11)
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=1, hidden=(8, 8)))
    model = fit(TripleScorer, samples, cfg)
    question, graph, _ = samples[0]
    empty = graph.restrict([])
    assert model.score(question, empty) == []


def test_score_triples_dimension_mismatch():
    samples = corpus_samples(n_questions=1, seed=13)
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=1, hidden=(8, 8)))
    model = fit(TripleScorer, samples, cfg)
    question, graph, _ = samples[0]
    _, bundle = TripleFeatureBuilder(graph, question, HashedBowEncoder(5)).matrix()
    with pytest.raises(ValueError, match="mismatch"):
        model.logits(bundle)


def test_validation_checkpoint_selection():
    samples = corpus_samples(n_questions=12, seed=15)
    cfg = PipelineConfig(
        seed=42, text_dim=32, training=TrainingSettings(epochs=25, hidden=(32, 32), recall_k=5)
    )
    model = fit(TripleScorer, samples[:9], cfg, val_samples=samples[9:])
    assert held_out_recall(model, samples[9:]) == 1.0


def test_top_k_selects_and_breaks_ties_by_id():
    scored = [(0, 0.5), (1, 0.9), (2, 0.5)]
    sub = top_k(scored, 2)
    assert [e.tid for e in sub] == [1, 0]
    assert [e.score for e in sub] == sorted([e.score for e in sub], reverse=True)


def test_top_k_k_at_least_n_returns_all():
    sub = top_k([(0, 0.1), (1, 0.2)], 10)
    assert [e.tid for e in sub] == [1, 0]


def test_top_k_rejects_zero_k():
    with pytest.raises(ValueError):
        top_k([(0, 0.5)], 0)


def test_top_k_monotone_in_k():
    rng = np.random.default_rng(2)
    scored = [(tid, float(rng.choice([0.1, 0.5, 0.9]))) for tid in range(12)]
    previous: set[int] = set()
    for k in range(1, 13):
        current = {e.tid for e in top_k(scored, k)}
        assert previous <= current
        previous = current


def test_model_save_load_round_trip(tmp_path):
    samples = corpus_samples(n_questions=2, seed=17)
    cfg = PipelineConfig(seed=42, text_dim=32, training=TrainingSettings(epochs=3, hidden=(16, 16)))
    model = fit(TripleScorer, samples, cfg)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path, TripleScorer, model.encoder_tag)
    question, graph, _ = samples[0]
    assert loaded.score(question, graph) == model.score(question, graph)


def test_model_load_rejects_encoder_tag_mismatch(tmp_path):
    samples = corpus_samples(n_questions=1, seed=19)
    cfg = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=1, hidden=(8, 8)))
    model = fit(TripleScorer, samples, cfg)
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(ModelFormatError, match="encoder tag"):
        load_model(path, TripleScorer, "hashed-bow-999")


def test_model_weights_round_trip_bit_exact(tmp_path):
    model = TripleScorer((3,), "tanh", "hashed-bow-1", 1, 1, np.random.default_rng(0))
    model.params[0][0, :] = [-0.0, 5e-324, -2.2250738585072014e-308]
    model.params[1][:] = [np.pi, -1e300, 1e-310]
    model.params[-1][:] = [-0.0]  # the 1-element output bias
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path, TripleScorer, "hashed-bow-1")
    assert json.loads(path.read_text())["format_version"] == 3
    for got, want in zip(loaded.params, model.params):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # tells -0.0 from 0.0
