"""Contracts shared by both scorers: checkpoint selection and view-local features."""

import ast
import io
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgrag.config import PipelineConfig, TrainingSettings
from kgrag.kg import Question, load_kg
from kgrag.retriever import (
    EntityScorer,
    HashedBowEncoder,
    TrainSample,
    TripleFeatureBuilder,
    TripleScorer,
    anchor_slots,
    compute_dde,
    entity_positives,
    fit,
    load_model,
    save_model,
)
from kgrag.retriever.entity_scorer import prepare_graph_tensors
from kgrag.retriever.triple_scorer import recall_at_k

from oracles import (
    dense_entity_loss_and_grad,
    dense_triple_loss_and_grad,
    directed_distance,
    entity_matrix,
    triple_matrix,
)
from synth import separable_corpus


def triple_recall(model, samples, k):
    total = 0.0
    for question, graph, positives in samples:
        total += recall_at_k(model.score(question, graph), positives, k)
    return total / len(samples)


def entity_recall(model, samples, k):
    total = 0.0
    for question, graph, positives in samples:
        scored = model.score(question, graph)
        total += recall_at_k(scored, entity_positives(graph, positives), k)
    return total / len(samples)


@pytest.mark.parametrize(
    "scorer, recall",
    [(TripleScorer, triple_recall), (EntityScorer, entity_recall)],
    ids=["triple", "entity"],
)
def test_checkpoint_is_earliest_epoch_with_best_validation_recall(scorer, recall):
    # training supervision is corrupted with decoys, so validation recall moves
    corpus = separable_corpus(n_questions=6, n_triples=30, n_pos=4, n_decoys=3, seed=0)
    train_samples = [TrainSample(s.question, s.graph, s.positives | d) for s, d in corpus[:4]]
    val_samples = [s for s, _ in corpus[4:]]
    cfg = PipelineConfig(
        seed=0, text_dim=16,
        training=TrainingSettings(
            epochs=8, learning_rate=1.0, hidden=(8, 8), recall_k=2, gnn_hidden=8, gnn_depth=2
        ),
    )
    selected = fit(scorer, train_samples, cfg, val_samples=val_samples)

    per_epoch = []
    for epochs in range(1, cfg.training.epochs + 1):
        model = fit(scorer, train_samples, replace(cfg, training=replace(cfg.training, epochs=epochs)))
        per_epoch.append((recall(model, val_samples, cfg.training.recall_k), model))
    best = max(r for r, _ in per_epoch)
    earliest = next(i for i, (r, _) in enumerate(per_epoch) if r == best)
    # selection must matter here: the best recall is reached more than once,
    # and the earliest epoch that reaches it is not the last one
    assert earliest < cfg.training.epochs - 1
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

        tids, bundle = TripleFeatureBuilder(view, q, encoder, depth, slots).matrix()
        X = triple_matrix(bundle)
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
        assert gt.view.entity_ids == sorted(view_entities)
        for e, row in zip(gt.view.entity_ids, entity_matrix(gt)):
            text = np.concatenate([encoder(q.text), encoder(view.entity_label(e))])
            assert np.array_equal(row[: 2 * dim], text)
            got = decode_blocks(row[2 * dim :], 2 * slots, depth)
            assert got == [b for s in range(slots) for b in want[s][e]]
        for i, (_, tr) in enumerate(view.iter_triples()):
            assert (gt.view.entity_ids[gt.view.head[i]], gt.view.entity_ids[gt.view.tail[i]]) == (tr.head, tr.tail)
            assert np.array_equal(
                gt.view.relation_text[gt.view.relation[i]], encoder(view.relation_label(tr.relation))
            )

        for slot in anchor_slots(set(q.query_entities), slots):
            if slot:
                assert set(compute_dde(view, slot, depth)) == view_entities


_TRIPLES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)), min_size=1, max_size=24
)


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(
    rows=_TRIPLES,
    keep=st.lists(st.booleans(), min_size=24, max_size=24),
    seed=st.integers(0, 2**16),
    activation=st.sampled_from(["tanh", "relu"]),
)
@example(rows=[(0, 0, 0), (0, 1, 1)], keep=[True] * 24, seed=0, activation="tanh")  # self-loop
@example(rows=[(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 0)], keep=[True] * 24, seed=1, activation="tanh")  # parallel
@example(rows=[(0, 0, 1), (1, 0, 2), (2, 0, 0)], keep=[True] * 24, seed=2, activation="relu")  # one relation
@example(rows=[(3, 1, 4), (4, 2, 5)], keep=[True] + [False] * 23, seed=3, activation="tanh")  # one triple
@example(rows=[(0, 0, 1), (1, 1, 2)], keep=[False] * 24, seed=4, activation="tanh")  # empty view
def test_factored_scorers_match_dense_oracle(rows, keep, seed, activation):
    """Logits, loss and every gradient of both scorers equal the dense layers' on random views."""
    g = load_kg(io.StringIO("\n".join(f"e{h}\trel{r}\te{t}" for h, r, t in rows)), "tsv")
    view = g.restrict([t for t in range(len(g)) if keep[t]])
    q = Question("q", "which e1 rel0", frozenset({0, len(g.entities) - 1}), frozenset(), frozenset())
    encoder, depth, slots = HashedBowEncoder(8), 2, 2
    rng = np.random.default_rng(seed)

    def randomized(model):
        model.params = [rng.normal(0.0, 0.7, p.shape) for p in model.params]
        return model

    tids, bundle = TripleFeatureBuilder(view, q, encoder, depth, slots).matrix()
    y = (rng.random(len(tids)) < 0.3).astype(np.float64)
    hidden = [(), (5,), (5, 4)][seed % 3]
    triple = randomized(
        TripleScorer(hidden, activation, encoder.tag, depth, slots, rng)
    )
    gt = prepare_graph_tensors(view, q, encoder, depth, slots)
    y_ent = (rng.random(len(gt.view.entity_ids)) < 0.3).astype(np.float64)
    entity = randomized(
        EntityScorer(4, 2, encoder.tag, depth, slots, rng)
    )
    with np.errstate(invalid="ignore", divide="ignore"):  # an empty view has a 0/0 loss
        cases = [
            (triple, bundle, y, 2.0, dense_triple_loss_and_grad(triple, triple_matrix(bundle), y, 2.0)),
            (entity, gt, y_ent, 3.0, dense_entity_loss_and_grad(entity, bundle, y_ent, 3.0)),
        ]
        for model, inputs, labels, pos_weight, (want_logits, want_loss, want_grads) in cases:
            loss, grads = model.loss_and_grad(inputs, labels, pos_weight)
            _assert_close(model.logits(inputs), want_logits)
            _assert_close(loss, want_loss)
            assert len(grads) == len(want_grads) == len(model.params)
            for got, want, param in zip(grads, want_grads, model.params):
                assert got.shape == want.shape == param.shape
                _assert_close(got, want)


def test_no_scatter_add_under_src():
    """The sorted segment sum is the only scatter: no unbuffered ufunc ``.at`` under src/kgrag."""
    root = Path(__file__).resolve().parents[1] / "src" / "kgrag"
    pattern = re.compile(r"np\.\w+\.at\b|\.at\(")
    hits = [
        f"{path.relative_to(root)}:{lineno}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not hits, hits


def test_src_imports_only_the_standard_library_and_numpy():
    """The runtime needs Python and numpy only: every absolute import under src/kgrag, at any
    depth, is of the standard library, numpy or kgrag itself."""
    root = Path(__file__).resolve().parents[1] / "src" / "kgrag"
    allowed = set(sys.stdlib_module_names) | {"numpy", "kgrag"}
    hits = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits += [
                f"{path.relative_to(root)}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not hits, hits


def test_no_coercion_of_a_record_field_under_src():
    """``config.json_field`` is the one typed-field reader: no ``int(rec["k"])`` or
    ``str(obj.get("id"))`` under src/kgrag converts a value read from JSON instead."""
    root = Path(__file__).resolve().parents[1] / "src" / "kgrag"
    pattern = re.compile(r"\b(?:int|float|str|tuple|list|frozenset)\(\s*\w+(?:\[|\.get\()\s*[\"']")
    hits = [
        f"{path.relative_to(root)}:{lineno}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]
    assert not hits, hits


@pytest.mark.parametrize(
    "scorer, arch",
    [
        (TripleScorer, {"hidden": (), "activation": "tanh"}),
        (TripleScorer, {"hidden": (5,), "activation": "relu"}),
        (TripleScorer, {"hidden": (5, 3, 4), "activation": "tanh"}),
        (EntityScorer, {"hidden": 5, "depth": 1}),
        (EntityScorer, {"hidden": 4, "depth": 3}),
    ],
    ids=["mlp-linear", "mlp-1", "mlp-3", "mpnn-1", "mpnn-3"],
)
def test_layout_gives_the_parameters_and_the_model_file(tmp_path, scorer, arch):
    model = scorer(**arch, encoder_tag="hashed-bow-2", dde_depth=1, dde_slots=1, rng=np.random.default_rng(0))
    assert [(name, p.shape) for name, p in model.named_params()] == model.layout()
    assert len(model.params) == len(model.layout())
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json", scorer, "hashed-bow-2")
    assert type(loaded) is scorer and loaded.arch() == model.arch()
    assert [p.tobytes() for p in loaded.params] == [p.tobytes() for p in model.params]


@pytest.mark.parametrize("scorer", [TripleScorer, EntityScorer], ids=["triple", "entity"])
@pytest.mark.parametrize("text_dim, dde_depth, dde_slots", [(2, 1, 1), (16, 3, 3), (7, 2, 4)])
def test_fit_gives_the_widths_and_encoder_of_the_features_it_builds(scorer, text_dim, dde_depth, dde_slots):
    (sample, _), = separable_corpus(n_questions=1, n_triples=12, seed=3)
    cfg = PipelineConfig(
        seed=0, text_dim=text_dim, dde_depth=dde_depth, dde_slots=dde_slots,
        training=TrainingSettings(epochs=0, hidden=(4,), gnn_hidden=4, gnn_depth=1),
    )
    model = fit(scorer, [sample], cfg)
    assert model.encoder_tag == model.encoder.tag == HashedBowEncoder(text_dim).tag
    inputs, ids = model.inputs(sample.graph, sample.question)
    assert np.array_equal(inputs.query, HashedBowEncoder(text_dim)(sample.question.text))
    if scorer is TripleScorer:
        built = {"input_dim": triple_matrix(inputs).shape[1]}
    else:
        built = {"input_dim": entity_matrix(inputs).shape[1], "rel_dim": inputs.view.relation_text.shape[1]}
    assert {name: getattr(model, name) for name in built} == built
    assert len(model.scores(inputs)) == len(ids)
