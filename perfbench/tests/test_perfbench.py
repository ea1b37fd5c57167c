"""Tests of the benchmark's own parts: generator, span arithmetic, output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

SCOPED = {"questions": 4, "scope_entities": 20, "scope_triples": 50, "relations": 8}
SHARED = {"questions": 5, "entities": 40, "triples": 120, "relations": 8}


# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("shape,params", [("scoped", SCOPED), ("shared", SHARED)])
def test_generator_same_seed_same_bytes(tmp_path, shape, params):
    a = corpus.write_corpus(tmp_path / "a", shape, params, seed=7)
    b = corpus.write_corpus(tmp_path / "b", shape, params, seed=7)
    c = corpus.write_corpus(tmp_path / "c", shape, params, seed=8)
    for name in ("kg.tsv", "questions.jsonl", "corpus.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a["sha256"] == b["sha256"] != c["sha256"]
    assert a["seed"] == 7 and a["params"] == params


def test_scoped_corpus_plants_private_two_hop_paths(tmp_path):
    manifest = corpus.write_corpus(tmp_path, "scoped", SCOPED, seed=3)
    triples = [tuple(line.split("\t")) for line in (tmp_path / "kg.tsv").read_text().splitlines()]
    records = [json.loads(line) for line in (tmp_path / "questions.jsonl").read_text().splitlines()]
    assert manifest["triples"] == len(triples) == SCOPED["questions"] * SCOPED["scope_triples"]
    assert len(set(triples)) == len(triples)
    for rec in records:
        scope = [tuple(t) for t in rec["scope"]]
        assert len(scope) == SCOPED["scope_triples"]
        (query,), (answer,) = rec["question_entities"], rec["answer_entities"]
        out_of_query = [t for t in scope if t[0] == query]
        assert len(out_of_query) == 1  # the planted first step is the query's only out-edge
        mid = out_of_query[0][2]
        assert [t[2] for t in scope if t[0] == mid] == [answer]
        assert not any({t[0], t[2]} == {query, answer} for t in scope)
        assert out_of_query[0][1] in rec["question"]


def test_shared_corpus_questions_are_unscoped(tmp_path):
    corpus.write_corpus(tmp_path, "shared", SHARED, seed=3)
    records = [json.loads(line) for line in (tmp_path / "questions.jsonl").read_text().splitlines()]
    assert len(records) == SHARED["questions"]
    assert all("scope" not in rec for rec in records)
    assert len({rec["question_entities"][0] for rec in records}) == SHARED["questions"]


# -- span arithmetic ------------------------------------------------------------


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("stage", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, "q1"),
        Span("a.child", 2.0, 3.0, 1, "q1"),
        Span("b", 3.0, 6.0, 0, "q2"),  # overlaps a: the union [1, 6] is covered once
        Span("c", 8.0, 12.0, 0, None),  # runs past its parent: only [8, 10] counts
        Span("other stage", 20.0, 21.5, None, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.5])
    assert tracing.self_time_by_name(spans)["a"] == pytest.approx(2.0)


def test_self_times_of_nested_calls_sum_to_the_stage():
    tracer = Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return tracer.call("leaf", leaf, (), {}) + tracer.call("leaf", leaf, (), {})

    tracer.call("stage", lambda: tracer.call("middle", middle, (), {}), (), {})
    root = tracer.spans[0]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1]
    assert tracing.subtree_self_sums(tracer.spans)[0] == pytest.approx(root.end - root.start, abs=1e-12)


def test_wrap_counts_and_restore():
    class Target:
        def work(self, n):
            if n < 0:
                raise ValueError(n)
            return list(range(n))

    original = Target.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(Target, "work", "layer.work", tracing._bump("layer.items", lambda a, k, r: len(r)), failures="layer.failures")
    assert Target().work(3) == [0, 1, 2]
    with pytest.raises(ValueError):
        Target().work(-1)
    assert [s.name for s in tracer.spans] == ["layer.work", "layer.work"]
    assert tracer.counts == {"layer.items": 3, "layer.failures": 1}
    tracer.restore()
    assert Target.__dict__["work"] is original


def test_instrument_restores_every_attribute():
    pytest.importorskip("numpy")
    from kgrag import cli, kg, refiner
    from kgrag.retriever import features

    before = (cli.top_k, kg.load_kg, refiner.parse_selection, features.TripleFeatureBuilder.__dict__["matrix"])
    tracer = Tracer()
    tracing.instrument(tracer)
    assert kg.load_kg is not before[1]
    tracer.restore()
    after = (cli.top_k, kg.load_kg, refiner.parse_selection, features.TripleFeatureBuilder.__dict__["matrix"])
    assert after == before


# -- output checks --------------------------------------------------------------


def _write_records(path: Path, ids: list[str]) -> None:
    path.write_text("".join(json.dumps({"id": i, "triples": [["a", "r", "b"]]}) + "\n" for i in ids))


def test_complete_artifact_passes(tmp_path):
    ledger = checks.Ledger()
    _write_records(tmp_path / "retrieval.jsonl", ["q1", "q2", "q3"])
    checks.check_per_question(ledger, tmp_path / "retrieval.jsonl", "id", ["q1", "q2", "q3"])
    assert ledger.attempted == 4 and ledger.failures == []


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[: len(data) - 10],  # truncated inside the last record
        lambda data: data[: data.index(b"\n") + 1],  # whole records lost
        lambda data: data.replace(b"{", b"[", 1),  # corrupted first record
        lambda data: b"",  # emptied
    ],
)
def test_damaged_artifact_counts_as_failure(tmp_path, damage):
    path = tmp_path / "retrieval.jsonl"
    _write_records(path, ["q1", "q2", "q3"])
    path.write_bytes(damage(path.read_bytes()))
    ledger = checks.Ledger()
    checks.check_per_question(ledger, path, "id", ["q1", "q2", "q3"])
    assert ledger.failures, "damage went unnoticed"
    assert ledger.attempted == 4  # the run goes on and counts every expected record


def test_missing_artifact_counts_every_record(tmp_path):
    ledger = checks.Ledger()
    checks.check_per_question(ledger, tmp_path / "absent.jsonl", "id", ["q1", "q2"])
    assert len(ledger.failures) == 3


def test_answer_recall_and_hit_are_recomputed_from_records():
    gold = {"q1": {"Paris"}, "q2": {"Rome"}}
    retrieval = {"q1": {"triples": [["France", "capital", "Paris"]]}, "q2": {"triples": [["x", "r", "y"]]}}
    answers = {"q1": {"answers": ["  paris "]}, "q2": {"answers": ["Milan"]}}
    assert checks.answer_recall(retrieval, gold) == 0.5
    assert checks.recomputed_hit(answers, gold) == 0.5


def test_acceptance_gap_in_standard_errors():
    gap, in_se = checks.acceptance_gap({"closed_form_acceptance": 0.01, "acceptance_rate": 0.012}, 10_000)
    assert gap == pytest.approx(0.002)
    assert in_se == pytest.approx(0.002 / (0.01 * 0.99 / 10_000) ** 0.5)
    assert checks.acceptance_gap({"closed_form_acceptance": 0.0, "acceptance_rate": 0.0}, 100) == (0.0, 0.0)
    assert checks.acceptance_gap({"closed_form_acceptance": 0.0, "acceptance_rate": 0.01}, 100)[1] == float("inf")
