import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import load_kg
from kgrag.pool import (
    PROV_ANSWER,
    PROV_QUERY,
    PROV_SHORTEST,
    answer_neighborhood,
    build_pool,
    merge_answers,
    merge_relation_chains,
    pool_to_record,
    query_neighborhood,
    read_pools,
    shortest_paths,
)
from kgrag.kg import ReasoningPath

from conftest import graph_from_lines, make_question
from oracles import enumerate_shortest_paths


def paths_as_set(paths):
    return {(p.triple_ids, p.orientations) for p in paths}


def test_shortest_path_prefers_direct_edge():
    g = graph_from_lines("A r1 B", "B r2 C", "A r3 C")
    a, c = g.entity_ids["A"], g.entity_ids["C"]
    got = shortest_paths(g, {a}, {c})
    expected = enumerate_shortest_paths([(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()], a, c)
    assert paths_as_set(got) == expected
    assert paths_as_set(got) == {((2,), ("f",))}


def test_shortest_path_source_equals_target_excluded():
    g = graph_from_lines("A r1 B", "B r2 A")
    a = g.entity_ids["A"]
    assert shortest_paths(g, {a}, {a}) == []


def test_shortest_path_reverse_orientation():
    g = graph_from_lines("C r1 A")
    a, c = g.entity_ids["A"], g.entity_ids["C"]
    got = shortest_paths(g, {a}, {c})
    expected = enumerate_shortest_paths([(0, g.triple(0).head, g.triple(0).tail)], a, c)
    assert paths_as_set(got) == expected == {((0,), ("b",))}


def test_shortest_path_cap_truncates_lexicographically():
    g = graph_from_lines("A r1 B", "A r2 B", "A r3 B")
    a, b = g.entity_ids["A"], g.entity_ids["B"]
    got = shortest_paths(g, {a}, {b}, cap=2)
    assert [p.triple_ids for p in got] == [(0,), (1,)]


def _random_graph(rng, n_entities, n_triples):
    rows = []
    for _ in range(n_triples):
        h = rng.integers(0, n_entities)
        t = rng.integers(0, n_entities)
        r = rng.integers(0, 5)
        rows.append(f"e{h}\trel{r}\te{t}")
    return load_kg(io.StringIO("\n".join(rows)), "tsv")


def test_shortest_paths_match_oracle_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_entities = int(rng.integers(4, 40))
        n_triples = int(rng.integers(3, 120))
        g = _random_graph(rng, n_entities, n_triples)
        edges = [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()]
        ids = list(range(len(g.entities)))
        sources = {int(rng.choice(ids))}
        targets = {int(rng.choice(ids)) for _ in range(2)}
        got = paths_as_set(shortest_paths(g, sources, targets, cap=10_000))
        expected = set()
        for s in sources:
            for t in targets:
                expected |= enumerate_shortest_paths(edges, s, t)
        assert got == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shortest_paths_are_the_oracles_in_pair_and_triple_id_order_up_to_the_cap(data):
    n_entities = data.draw(st.integers(2, 9))
    entity = st.integers(0, n_entities - 1)
    rows = data.draw(st.lists(st.tuples(entity, st.integers(0, 2), entity), min_size=1, max_size=24))
    g = load_kg(io.StringIO("\n".join(f"e{h}\trel{r}\te{t}" for h, r, t in rows)), "tsv")
    ids = st.integers(0, len(g.entities) - 1)
    sources, targets = data.draw(st.sets(ids, min_size=1, max_size=3)), data.draw(st.sets(ids, max_size=3))
    cap = data.draw(st.sampled_from([1, 2, 3, 10_000]))
    edges = [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()]
    expected = [
        ReasoningPath(*path)
        for s in sorted(sources)
        for t in sorted(targets)
        for path in sorted(enumerate_shortest_paths(edges, s, t))[:cap]
    ]
    assert shortest_paths(g, sources, targets, cap) == expected


def test_query_neighborhood_counts_and_dedup():
    g = graph_from_lines("A r1 B", "C r2 A", "B r3 C")
    q = make_question(g, ["A"], [])
    got = query_neighborhood(g, q)
    assert len(got) == 2
    # both query entities touch the same triple -> one path only
    g2 = graph_from_lines("A r1 B")
    q2 = make_question(g2, ["A", "B"], [])
    got2 = query_neighborhood(g2, q2)
    assert len(got2) == 1
    assert got2[0].orientations == ("f",)  # anchored at A (smaller id) first


def test_query_neighborhood_isolated_entity():
    g = graph_from_lines("A r1 B", "C r2 D")
    view = g.restrict([0])
    q = make_question(g, ["C"], [])
    assert query_neighborhood(view, q) == []


def test_answer_neighborhood_numeric_attribute_case():
    g = graph_from_lines("engine chamber_pressure 70.0")
    q = make_question(g, [], ["engine"])
    got = answer_neighborhood(g, q)
    assert len(got) == 1
    assert got[0].triple_ids == (0,)
    assert got[0].orientations == ("f",)


def test_answer_neighborhood_empty_answers():
    g = graph_from_lines("A r1 B")
    q = make_question(g, ["A"], [])
    assert answer_neighborhood(g, q) == []


def test_answer_neighborhood_three_incident():
    g = graph_from_lines("A r1 X", "B r2 X", "X r3 C")
    q = make_question(g, [], ["X"])
    assert len(answer_neighborhood(g, q)) == 3


def _pool_for(g, q, cap=256):
    return [
        *((path, PROV_SHORTEST) for path in shortest_paths(g, q.query_entities, q.answer_entities, cap)),
        *((path, PROV_QUERY) for path in query_neighborhood(g, q)),
        *((path, PROV_ANSWER) for path in answer_neighborhood(g, q)),
    ]


def _shortest_path_terminals(pool, g):
    """The answers the kept shortest-path entries end at: the representative alone."""
    return {p.terminal(g) for p, prov in pool if prov == PROV_SHORTEST}


def test_merge_answers_keeps_best_connected():
    # three paths to X, one to Y
    g = graph_from_lines("Q r1 X", "Q r2 X", "Q r3 X", "Q r4 Y")
    q = make_question(g, ["Q"], ["X", "Y"])
    pool = _pool_for(g, q)
    merged = merge_answers(pool, q, g)
    x = g.entity_ids["X"]
    assert _shortest_path_terminals(merged, g) == {x}
    # count paths per answer by brute force
    counts = {}
    for p, prov in pool:
        if prov == PROV_SHORTEST:
            counts[p.terminal(g)] = counts.get(p.terminal(g), 0) + 1
    assert counts[x] == 3 and max(counts.values()) == 3


def test_merge_answers_single_answer_unchanged():
    g = graph_from_lines("Q r1 X")
    q = make_question(g, ["Q"], ["X"])
    pool = _pool_for(g, q)
    merged = merge_answers(pool, q, g)
    assert _shortest_path_terminals(merged, g) == {g.entity_ids["X"]}
    assert len(merged) == len(pool)


def test_merge_answers_tie_breaks_to_smaller_id():
    g = graph_from_lines("Q r1 X", "Q r2 Y", "Q r3 Y", "Q r4 X")
    q = make_question(g, ["Q"], ["X", "Y"])
    pool = _pool_for(g, q)
    merged = merge_answers(pool, q, g)
    assert _shortest_path_terminals(merged, g) == {g.entity_ids["X"]}  # X seen first


def test_merge_answers_neighborhood_untouched():
    g = graph_from_lines("Q r1 X", "Q r2 Y", "Y attr Z")
    q = make_question(g, ["Q"], ["X", "Y"])
    pool = _pool_for(g, q)
    merged = merge_answers(pool, q, g)
    assert [e for e in merged if e[1] == PROV_ANSWER] == [e for e in pool if e[1] == PROV_ANSWER]


def test_merge_relation_chains_collapses_same_relation_sequence():
    g = graph_from_lines("A r1 B", "B r2 C", "A r1 D", "D r2 E")
    pool = [(ReasoningPath((2, 3), ("f", "f")), PROV_SHORTEST), (ReasoningPath((0, 1), ("f", "f")), PROV_SHORTEST)]
    merged = merge_relation_chains(pool, g)
    assert len(merged) == 1
    assert merged[0][0].triple_ids == (0, 1)  # lexicographically smallest


def test_merge_relation_chains_sequence_order_matters():
    g = graph_from_lines("A r1 B", "B r2 C", "A r2 X", "X r1 Y")
    pool = [(ReasoningPath((0, 1), ("f", "f")), PROV_SHORTEST), (ReasoningPath((2, 3), ("f", "f")), PROV_SHORTEST)]
    merged = merge_relation_chains(pool, g)
    assert len(merged) == 2


def test_merge_relation_chains_singletons_unchanged():
    g = graph_from_lines("A r1 B", "B r2 C")
    pool = [(ReasoningPath((0,), ("f",)), PROV_QUERY), (ReasoningPath((1,), ("f",)), PROV_QUERY)]
    assert merge_relation_chains(pool, g) == pool


def test_merges_are_idempotent():
    g = graph_from_lines("Q r1 X", "Q r1 Y", "Q r2 X", "X r3 Z")
    q = make_question(g, ["Q"], ["X", "Y"])
    pool = _pool_for(g, q)
    once = merge_answers(pool, q, g)
    twice = merge_answers(once, q, g)
    assert once == twice
    m_once = merge_relation_chains(once, g)
    assert merge_relation_chains(m_once, g) == m_once


def test_build_pool_minimal_dedup_case():
    # two parallel edges query->answer: sp paths (forward) subsume the query
    # neighborhood; the answer neighborhood keeps its reverse-direction view
    g = graph_from_lines("A r1 B", "A r2 B")
    q = make_question(g, ["A"], ["B"])
    pool = build_pool(g, q)
    assert len(pool) == 4
    provs = [prov for _, prov in pool]
    assert provs.count(PROV_SHORTEST) == 2
    assert provs.count(PROV_ANSWER) == 2


def test_build_pool_no_answers_gives_query_only():
    g = graph_from_lines("A r1 B", "B r2 C")
    q = make_question(g, ["A"], [])
    pool = build_pool(g, q)
    assert len(pool) > 0
    assert {prov for _, prov in pool} == {PROV_QUERY}


def test_build_pool_empty_graph():
    g = graph_from_lines("A r1 B")
    view = g.restrict([])
    q = make_question(g, ["A"], ["B"])
    pool = build_pool(view, q)
    assert len(pool) == 0


def test_build_pool_soundness_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = _random_graph(rng, int(rng.integers(4, 25)), int(rng.integers(3, 60)))
        ids = list(range(len(g.entities)))
        q = make_question(
            g,
            [g.entity_label(int(rng.choice(ids)))],
            [g.entity_label(int(rng.choice(ids)))],
        )
        pool = build_pool(g, q)
        for path, _ in pool:
            path.validate(g)


def test_compression_count_matches_brute_force_grouping():
    rng = np.random.default_rng(3)
    g = _random_graph(rng, 15, 50)
    q = make_question(g, [g.entity_label(0)], [g.entity_label(1)])
    pool = _pool_for(g, q)
    merged = merge_relation_chains(pool, g)
    classes = {(prov, p.source(g), p.relation_path(g)) for p, prov in pool}
    assert len(merged) == len(classes)


def test_pool_serialization_round_trip():
    g = graph_from_lines("A r1 B", "B r2 C", "C r3 A")
    q = make_question(g, ["A"], ["C"], qid="qx")
    pool = build_pool(g, q)
    record = pool_to_record(q.id, pool, g)
    ((qid, loaded),) = read_pools([json.dumps(record)], g, ["qx"]).items()
    assert qid == "qx"
    assert loaded == pool


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_merge_relation_chains_size_never_grows(data):
    n = data.draw(st.integers(1, 8))
    rows = []
    for i in range(n):
        rows.append(f"s\trel{data.draw(st.integers(0, 2))}\tm{i}")
    g = load_kg(io.StringIO("\n".join(rows)), "tsv")
    pool = [(ReasoningPath((tid,), ("f",)), PROV_SHORTEST) for tid, _ in g.iter_triples()]
    merged = merge_relation_chains(pool, g)
    assert len(merged) <= len(pool)
    assert set(merged) <= set(pool)
    classes = [(prov, p.source(g), p.relation_path(g)) for p, prov in merged]
    assert sorted(classes) == sorted({(prov, p.source(g), p.relation_path(g)) for p, prov in pool})
