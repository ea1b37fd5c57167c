"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. Budgets
are asserted where the criterion states one.
"""

import functools
import io
import json
import math
import time

import numpy as np
import pytest

from kgrag.config import PipelineConfig, TrainingSettings
from kgrag.kg import load_kg
from kgrag.metrics import Prediction, evaluate
from kgrag.pool import (
    PROV_SHORTEST,
    merge_answers,
    merge_relation_chains,
    shortest_paths,
)
from kgrag.kg import ReasoningPath
from kgrag.reorganize import EvidenceChain, expand_chains, merge_multi_entity
from kgrag.retriever import EntityScorer, TripleScorer, fit
from kgrag.retriever.entity_scorer import entity_positives, prepare_graph_tensors
from kgrag.retriever.features import TripleFeatureBuilder
from kgrag.retriever.subgraph import RetrievedTriple
from kgrag.retriever.triple_scorer import recall_at_k
from kgrag.simulate import (
    OracleInstance,
    SearchConfig,
    acceptance_probability,
    estimate_recovery_rounds,
    hypergeometric_tail,
)

from conftest import graph_of_edges, parameter_vector, set_parameter_vector, write_fixture_config
from oracles import (
    all_subsets,
    enumerate_chains,
    enumerate_shortest_paths,
    measure_acceptance_rate,
    multi_entity_blocks,
    reward_coverage,
)
from synth import separable_corpus, star_graph_entity_sample


def criterion(number: int, name: str, budget_s: float | None = None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL ({exc})")
                raise
            elapsed = time.time() - start
            print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")
            if budget_s is not None:
                assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"

        return wrapper

    return decorate


# -- 1: reward exactness -------------------------------------------------------


@criterion(1, "reward exactness over all subsets", budget_s=1.0)
def test_criterion_01_reward_exactness():
    inst = OracleInstance(10, frozenset({0, 1, 2}), s0=1.0, delta0=0.5)
    checked = 0
    for subset in all_subsets(list(range(10))):
        value = reward_coverage(subset, inst)
        if subset == set(inst.oracle_set):
            assert value == 1.0
        else:
            assert value < 1.0
        checked += 1
    assert checked == 2**10


# -- 2: hypergeometric oracle ----------------------------------------------------


@criterion(2, "hypergeometric tail vs simulation", budget_s=10.0)
def test_criterion_02_hypergeometric_oracle():
    want = 10 / 45
    got = hypergeometric_tail(10, 5, 2, 2)
    assert abs(got - want) / want < 1e-12

    inst = OracleInstance(200, frozenset(range(3)), s0=1.0, delta0=0.1)
    cfg = SearchConfig(subset_size=10, threshold=0.1, max_rounds=1, seed=42)
    closed = acceptance_probability(inst, cfg)
    rounds = 100_000
    empirical = measure_acceptance_rate(inst, cfg, rounds)
    se = math.sqrt(closed * (1 - closed) / rounds)
    assert abs(empirical - closed) <= 3 * se, (empirical, closed, se)


# -- 3: recovery-round trends ----------------------------------------------------

SIM_TRIALS = 1000
SIM_MAX_ROUNDS = 1500


# The threshold series has its own parameters: under the universe-size series'
# (N 200, S 10) the draw reward is capped at (3*1 - 7*0.1)/10 = 0.23, so
# thresholds 0.3 and 0.5 could never accept and both censor at max_rounds.
# With N 30 and S 5 a draw is accepted at 0.1, 0.3 and 0.5 from 1, 2 and 3
# oracle items on.
THRESHOLD_UNIVERSE, THRESHOLD_SUBSET = 30, 5
THRESHOLDS = (0.1, 0.3, 0.5)


def _recovery_inst(universe_size: int) -> OracleInstance:
    return OracleInstance(universe_size, frozenset(range(3)), s0=1.0, delta0=0.1)


@pytest.fixture(scope="module")
def recovery_means():
    means = {}
    for label, n, subset_size, threshold in (
        *((f"threshold_{t}", THRESHOLD_UNIVERSE, THRESHOLD_SUBSET, t) for t in THRESHOLDS),
        ("n200_t0.1", 200, 10, 0.1),
        ("n400_t0.1", 400, 10, 0.1),
    ):
        cfg = SearchConfig(
            subset_size=subset_size, threshold=threshold, max_rounds=SIM_MAX_ROUNDS, seed=42
        )
        summary = estimate_recovery_rounds(_recovery_inst(n), cfg, trials=SIM_TRIALS)
        means[label] = summary.mean_rounds
    return means


@criterion(3, "recovery rounds rise with threshold", budget_s=120.0)
def test_criterion_03a_threshold_monotonicity(recovery_means):
    inst = _recovery_inst(THRESHOLD_UNIVERSE)
    accept = [
        acceptance_probability(inst, SearchConfig(subset_size=THRESHOLD_SUBSET, threshold=t, max_rounds=1, seed=0))
        for t in THRESHOLDS
    ]
    assert accept[0] > accept[1] > accept[2] > 0, accept
    m1, m3, m5 = (recovery_means[f"threshold_{t}"] for t in THRESHOLDS)
    assert m1 < m3, (m1, m3, accept)
    assert m3 < m5, (m3, m5, accept)


@criterion(3, "recovery rounds rise with universe size")
def test_criterion_03b_universe_size_monotonicity(recovery_means):
    assert recovery_means["n200_t0.1"] < recovery_means["n400_t0.1"]


# -- 4: shortest-path oracle equivalence -----------------------------------------


@criterion(4, "shortest paths equal brute force")
def test_criterion_04_shortest_path_oracle():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n_entities = int(rng.integers(6, 80))
        n_triples = int(rng.integers(4, 200))
        rows = [
            f"e{rng.integers(0, n_entities)}\trel{rng.integers(0, 6)}\te{rng.integers(0, n_entities)}"
            for _ in range(n_triples)
        ]
        g = load_kg(io.StringIO("\n".join(rows)), "tsv")
        edges = [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()]
        population = len(g.entities)
        sources = {int(rng.integers(0, population))}
        targets = {int(rng.integers(0, population)) for _ in range(2)}
        got = {
            p.key() for p in shortest_paths(g, sources, targets, cap=1_000_000)
        }
        expected = set()
        for s in sources:
            for t in targets:
                expected |= enumerate_shortest_paths(edges, s, t)
        assert got == expected


# -- 5: merging algebra -----------------------------------------------------------


@criterion(5, "relation-chain merging algebra")
def test_criterion_05_merging_algebra():
    # synthetic pool: 500 two-step paths spread over 20 relation chains
    rows = []
    for chain in range(20):
        for i in range(25):
            rows.append(f"s\tfirst_{chain}\tmid_{chain}_{i}")
            rows.append(f"mid_{chain}_{i}\tsecond_{chain}\tend_{chain}_{i}")
    g = load_kg(io.StringIO("\n".join(rows)), "tsv")
    pool = [
        (ReasoningPath((first, first + 1), ("f", "f")), PROV_SHORTEST) for first in range(0, 1000, 2)
    ]
    assert len(pool) == 500

    merged = merge_relation_chains(pool, g)
    brute_classes = {(prov, p.source(g), p.relation_path(g)) for p, prov in pool}
    assert len(merged) == len(brute_classes) == 20
    assert len(merged) / len(pool) <= 20 / 500

    assert merge_relation_chains(merged, g) == merged

    # answer merging is idempotent too
    from conftest import make_question

    q = make_question(g, ["s"], [f"end_0_{i}" for i in range(5)])
    once = merge_answers(pool, q, g)
    twice = merge_answers(once, q, g)
    assert once == twice


# -- 6: chain-expansion equivalence -----------------------------------------------


@criterion(6, "chain expansion equals brute force")
def test_criterion_06_chain_expansion_oracle():
    rng = np.random.default_rng(606)
    graphs_checked = 0
    while graphs_checked < 100:
        n_triples = int(rng.integers(2, 41))
        n_entities = max(6, int(1.2 * n_triples))
        rows = [
            f"e{rng.integers(0, n_entities)}\trel{rng.integers(0, 5)}\te{rng.integers(0, n_entities)}"
            for _ in range(n_triples)
        ]
        g = load_kg(io.StringIO("\n".join(rows)), "tsv")
        edges = [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()]
        queries = {int(rng.integers(0, len(g.entities)))}
        expected_unlimited = enumerate_chains(edges, queries, None)
        if len(expected_unlimited) > 30_000:
            continue  # keep the brute-force side tractable
        sub = tuple(RetrievedTriple(tid, 0.0) for tid in g.triple_ids)
        for max_len in (1, 2, None):
            got = {
                (c.source(g), c.tid_sequence(), (c.orientation,) * len(c.steps))
                for c in expand_chains(sub, queries, g, max_len)
            }
            expected = (
                expected_unlimited
                if max_len is None
                else enumerate_chains(edges, queries, max_len)
            )
            assert got == expected
        graphs_checked += 1


# -- 7: multi-entity merge law ------------------------------------------------------


@criterion(7, "multi-entity merge intersects and stays contiguous")
def test_criterion_07_multi_entity_merge_law():
    rng = np.random.default_rng(707)
    entities = [f"e{i}" for i in range(28)]
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        chains, edges = [], []
        for i in range(n):
            source = int(rng.integers(0, 6))
            targets = sorted(int(x) for x in rng.choice(np.arange(20, 26), size=rng.integers(1, 4), replace=False))
            edges.append((source, targets[0]))
            chains.append(EvidenceChain(steps=(RetrievedTriple(i, 0.0),), orientation="f", targets=tuple(targets)))
        g = graph_of_edges(entities, edges)
        merged = merge_multi_entity(chains, set(range(6)), g)
        assert multi_entity_blocks(merged, chains, g) is not None


# -- 8: scorer training --------------------------------------------------------------


def _central_difference_check(model, loss_fn, seed):
    _, grads = loss_fn()
    flat_grad = np.concatenate([g.ravel() for g in grads])
    vec = parameter_vector(model)
    rng = np.random.default_rng(seed)
    coords = rng.choice(vec.size, size=10, replace=False)
    h = 1e-6
    for c in coords:
        plus, minus = vec.copy(), vec.copy()
        plus[c] += h
        minus[c] -= h
        set_parameter_vector(model, plus)
        lp = loss_fn()[0]
        set_parameter_vector(model, minus)
        lm = loss_fn()[0]
        set_parameter_vector(model, vec)
        numeric = (lp - lm) / (2 * h)
        denom = max(abs(numeric), abs(flat_grad[c]), 1e-8)
        assert abs(numeric - flat_grad[c]) / denom < 1e-4


@criterion(8, "scorer training quality", budget_s=120.0)
def test_criterion_08_scorer_training():
    # gradient check, triple scorer
    corpus = separable_corpus(n_questions=1, n_triples=12, seed=81)
    sample = corpus[0][0]
    cfg_small = PipelineConfig(seed=42, text_dim=16, training=TrainingSettings(epochs=0, hidden=(8, 8)))
    triple_model = fit(TripleScorer, [sample], cfg_small)
    builder = TripleFeatureBuilder(
        sample.graph, sample.question, triple_model.encoder, cfg_small.dde_depth, cfg_small.dde_slots
    )
    tids, X = builder.matrix()
    y = np.array([1.0 if t in sample.positives else 0.0 for t in tids])
    _central_difference_check(
        triple_model, lambda: triple_model.loss_and_grad(X, y, 2.0), seed=8
    )

    # gradient check, entity scorer
    star = star_graph_entity_sample()
    gcfg = PipelineConfig(
        seed=42, text_dim=16, training=TrainingSettings(epochs=0, gnn_hidden=8, gnn_depth=2)
    )
    entity_model = fit(EntityScorer, [star], gcfg)
    gt = prepare_graph_tensors(
        star.graph, star.question, entity_model.encoder, gcfg.dde_depth, gcfg.dde_slots
    )
    y_ent = np.array(
        [1.0 if e in entity_positives(star.graph, star.positives) else 0.0 for e in gt.view.entity_ids]
    )
    _central_difference_check(
        entity_model, lambda: entity_model.loss_and_grad(gt, y_ent, 3.0), seed=9
    )

    # held-out recall on the separable corpus (50 questions, 100 triples, 5 positives)
    cfg = PipelineConfig(
        seed=42, text_dim=64, training=TrainingSettings(epochs=60, learning_rate=0.05, hidden=(64, 64))
    )
    assert cfg.training.epochs <= 200
    corpus = [s for s, _ in separable_corpus(n_questions=50, n_triples=100, n_pos=5, seed=0)]
    model = fit(TripleScorer, corpus[:40], cfg)
    total = 0.0
    for question, graph, positives in corpus[40:]:
        total += recall_at_k(model.score(question, graph), positives, 5)
    assert total / 10 == 1.0

    # bitwise determinism, both scorers
    cfg_det = PipelineConfig(seed=42, text_dim=32, training=TrainingSettings(epochs=8, hidden=(16, 16)))
    t1 = fit(TripleScorer, corpus[:4], cfg_det)
    t2 = fit(TripleScorer, corpus[:4], cfg_det)
    assert all(np.array_equal(a, b) for a, b in zip(t1.params, t2.params))
    gcfg_det = PipelineConfig(
        seed=42, text_dim=16, training=TrainingSettings(epochs=8, gnn_hidden=8, gnn_depth=2)
    )
    e1 = fit(EntityScorer, [star], gcfg_det)
    e2 = fit(EntityScorer, [star], gcfg_det)
    assert all(np.array_equal(a, b) for a, b in zip(e1.params, e2.params))


# -- 9: supervision-quality proxy ------------------------------------------------------


@criterion(9, "refined supervision beats corrupted", budget_s=120.0)
def test_criterion_09_supervision_quality_proxy():
    corpus = separable_corpus(n_questions=50, n_triples=100, n_pos=5, n_decoys=5, seed=90)
    held_out = [s for s, _ in corpus[40:]]
    cfg = PipelineConfig(
        seed=42, text_dim=64, training=TrainingSettings(epochs=60, learning_rate=0.05, hidden=(64, 64))
    )

    def heldout_recall(model):
        total = 0.0
        for question, graph, positives in held_out:
            total += recall_at_k(model.score(question, graph), positives, 5)
        return total / len(held_out)

    for fraction in (1.0, 0.2):
        n_train = int(40 * fraction)
        refined = [s for s, _ in corpus[:n_train]]
        corrupted = [
            s._replace(positives=s.positives | decoys) for s, decoys in corpus[:n_train]
        ]
        refined_recall = heldout_recall(fit(TripleScorer, refined, cfg))
        corrupted_recall = heldout_recall(fit(TripleScorer, corrupted, cfg))
        assert refined_recall > corrupted_recall, (fraction, refined_recall, corrupted_recall)


# -- 10: end-to-end fixture --------------------------------------------------------------


@criterion(10, "end-to-end fixture pipeline", budget_s=30.0)
def test_criterion_10_end_to_end(tmp_path):
    from kgrag.cli import main

    cfg_path = write_fixture_config(tmp_path)
    for stage in (
        "ingest",
        "candidates",
        "refine",
        "train",
        "retrieve",
        "reorganize",
        "answer",
        "evaluate",
    ):
        assert main([stage, "--config", str(cfg_path)]) == 0, stage

    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["hit"] == 1.0
    assert report["hit_at_1"] >= 10 / 12

    chained = {
        json.loads(line)["id"]: json.loads(line)["prompt_sha256"]
        for line in (out / "answers.jsonl").read_text().splitlines()
    }
    assert main(["answer", "--config", str(cfg_path), "--no-reorganize"]) == 0
    flat = {
        json.loads(line)["id"]: json.loads(line)["prompt_sha256"]
        for line in (out / "answers.jsonl").read_text().splitlines()
    }
    assert all(chained[qid] != flat[qid] for qid in chained)


# -- 11: metrics fixture -----------------------------------------------------------------


@criterion(11, "metrics worked example exact")
def test_criterion_11_metrics_fixture():
    report = evaluate(
        [Prediction("Q1", ("b",)), Prediction("Q2", ("x",))],
        {"Q1": {"b"}, "Q2": {"y", "z"}},
    )
    assert report.macro_f1 == 0.5
    assert report.micro_f1 == pytest.approx(0.4, abs=0)
    assert report.micro_f1 == 0.4
