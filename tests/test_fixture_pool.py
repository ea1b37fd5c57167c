"""Frozen expectations on the hand-built fixture KG.

The q09 pool was enumerated by hand. Both one-hop borders_sea paths from
france are shortest paths, so the query-neighborhood copies are deduplicated
away during generation; answer merging then keeps only the mediterranean
shortest path (tie broken to the smaller entity id). What survives: that one
shortest path plus two answer-neighborhood classes collapsed by
relation-chain merging (three mediterranean triples, two atlantic ones).
Three entries total.
"""

from pathlib import Path

from kgrag.kg import load_kg, load_questions, working_graph
from kgrag.pool import PROV_ANSWER, PROV_SHORTEST, build_pool
from kgrag.reorganize import expand_chains, merge_multi_answer, merge_multi_entity
from kgrag.retriever.subgraph import RetrievedTriple

DATA = Path(__file__).parent / "data"


def load_fixture():
    with (DATA / "fixture_kg.tsv").open() as fh:
        g = load_kg(fh, "tsv")
    with (DATA / "fixture_questions.jsonl").open() as fh:
        questions, unresolved = load_questions(fh, g)
    assert unresolved == {}
    return g, {q.id: q for q in questions}


def test_fixture_q09_pool_after_merging():
    g, questions = load_fixture()
    q = questions["q09"]
    view = working_graph(g, q)
    pool = build_pool(view, q)
    assert len(pool) == 3
    assert [prov for _, prov in pool] == [PROV_SHORTEST, PROV_ANSWER, PROV_ANSWER]
    # the one kept shortest-path entry ends at the representative answer
    assert g.entity_label(pool[0][0].terminal(view)) == "mediterranean"


def test_fixture_all_pools_validate():
    g, questions = load_fixture()
    for q in questions.values():
        view = working_graph(g, q)
        pool = build_pool(view, q)
        assert len(pool) > 0
        for path, _ in pool:
            path.validate(g)


def test_fixture_merges_never_grow_chain_count():
    # reorganization compression proxy: merging cannot increase chain count
    g, questions = load_fixture()
    for q in questions.values():
        view = working_graph(g, q)
        sub = tuple(RetrievedTriple(tid, 0.0) for tid in view.triple_ids)
        raw = expand_chains(sub, set(q.query_entities), g, max_len=2)
        merged = merge_multi_answer(raw, g)
        final = merge_multi_entity(merged, set(q.query_entities), g)
        assert len(merged) <= len(raw)
        assert len(final) == len(merged)
