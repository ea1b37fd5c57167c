import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import KGFormatError, load_kg
from kgrag.reorganize import (
    EvidenceChain,
    build_flat_qa_prompt,
    build_qa_prompt,
    chains_from_record,
    chains_to_record,
    expand_chains,
    merge_multi_answer,
    merge_multi_entity,
    read_chains,
    render_evidence_line,
    write_chains,
    QADemo,
)
from kgrag.retriever import HashedBowEncoder, ViewTables
from kgrag.retriever.subgraph import RetrievedTriple, top_k

from conftest import graph_from_lines, graph_of_edges
from oracles import enumerate_chains, multi_entity_blocks


def subgraph_from_lines(lines, scores=None):
    g = graph_from_lines(*lines)
    return g, tuple(RetrievedTriple(tid, (scores or {}).get(tid, 0.0)) for tid in g.triple_ids)


def chain_shape(chain: EvidenceChain, g):
    return (chain.source(g), chain.tid_sequence(), (chain.orientation,) * len(chain.steps))


def assert_connected(chain: EvidenceChain, g):
    """Each step enters where the one before it left, starting at the source."""
    forward = chain.orientation == "f"
    cur = chain.source(g)
    for step in chain.steps:
        tr = g.triple(step.tid)
        assert (tr.head if forward else tr.tail) == cur, f"broken chain at triple {step.tid}"
        cur = tr.tail if forward else tr.head
    assert chain.targets


def test_a_step_whose_head_is_a_query_entity_anchors_and_the_rest_extend():
    g, sub = subgraph_from_lines(["Q r1 B", "B r2 C"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=None)
    assert [c.steps[0].tid for c in chains] == [0]
    assert [c.tid_sequence() for c in chains] == [(0, 1)]


def test_no_step_anchors_without_a_query_entity():
    g, sub = subgraph_from_lines(["A r1 B"])
    assert expand_chains(sub, set(), g) == []


def test_a_step_whose_tail_is_a_query_entity_anchors():
    g, sub = subgraph_from_lines(["A r1 Q"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g)
    assert [(c.steps[0].tid, c.orientation) for c in chains] == [(0, "b")]


def test_expand_chains_forward_and_backward():
    g, sub = subgraph_from_lines(["Q r1 B", "B r2 C", "D r3 Q"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=2)
    got = {chain_shape(c, g) for c in chains}
    expected = enumerate_chains(
        [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()],
        {g.entity_ids["Q"]},
        2,
    )
    assert got == expected
    assert ((g.entity_ids["Q"], (0, 1), ("f", "f"))) in got
    assert ((g.entity_ids["Q"], (2,), ("b",))) in got


def test_expand_chains_length_cap_one():
    g, sub = subgraph_from_lines(["Q r1 B", "B r2 C", "D r3 Q"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=1)
    assert {chain_shape(c, g) for c in chains} == {
        (g.entity_ids["Q"], (0,), ("f",)),
        (g.entity_ids["Q"], (2,), ("b",)),
    }


def test_expand_chains_cycle_terminates_without_reuse():
    g, sub = subgraph_from_lines(["Q r1 B", "B r2 Q"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=None)
    got = {chain_shape(c, g) for c in chains}
    expected = enumerate_chains(
        [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()],
        {g.entity_ids["Q"]},
        None,
    )
    assert got == expected
    for chain in chains:
        assert len(set(chain.tid_sequence())) == len(chain.tid_sequence())


def test_expand_chains_every_anchor_covered():
    g, sub = subgraph_from_lines(["Q r1 B", "Q r2 C", "C r3 D", "X r4 Y"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=2)
    anchored = {c.steps[0].tid for c in chains}
    assert anchored == {0, 1}
    all_tids = {tid for c in chains for tid in c.tid_sequence()}
    assert all_tids <= {0, 1, 2, 3}
    for chain in chains:
        assert_connected(chain, g)


def test_expand_chains_ordering_by_anchor_score():
    g, sub = subgraph_from_lines(["Q r1 B", "Q r2 C"], scores={0: 0.1, 1: 0.9})
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=1)
    assert [c.steps[0].tid for c in chains] == [1, 0]


def test_expand_chains_matches_oracle_on_random_subgraphs():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n_entities = int(rng.integers(4, 18))
        n_triples = int(rng.integers(2, 28))
        rows = [
            f"e{rng.integers(0, n_entities)}\trel{rng.integers(0, 4)}\te{rng.integers(0, n_entities)}"
            for _ in range(n_triples)
        ]
        g = load_kg(io.StringIO("\n".join(rows)), "tsv")
        sub = tuple(RetrievedTriple(tid, 0.0) for tid in g.triple_ids)
        queries = {int(rng.integers(0, len(g.entities)))}
        for max_len in (1, 2, None):
            got = {chain_shape(c, g) for c in expand_chains(sub, queries, g, max_len)}
            expected = enumerate_chains(
                [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()], queries, max_len
            )
            assert got == expected


def test_merge_multi_answer_unions_targets():
    g, sub = subgraph_from_lines(["Q r1 A1", "Q r1 A2"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=1)
    merged = merge_multi_answer(chains, g)
    assert len(merged) == 1
    assert merged[0].targets == (g.entity_ids["A1"], g.entity_ids["A2"])
    assert merged[0].tid_sequence() == (0,)


def test_merge_multi_answer_distinct_sources_not_merged():
    g, sub = subgraph_from_lines(["Q1 r1 A", "Q2 r1 B"])
    chains = expand_chains(sub, {g.entity_ids["Q1"], g.entity_ids["Q2"]}, g, max_len=1)
    assert len(merge_multi_answer(chains, g)) == 2


def test_merge_multi_answer_idempotent():
    g, sub = subgraph_from_lines(["Q r1 A1", "Q r1 A2", "Q r2 B"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=1)
    once = merge_multi_answer(chains, g)
    twice = merge_multi_answer(once, g)
    assert [chain_shape(c, g) for c in once] == [chain_shape(c, g) for c in twice]
    assert [c.targets for c in once] == [c.targets for c in twice]


def test_merge_multi_entity_intersects_targets():
    g = graph_of_edges(["Q1", "Q2", "X", "Y", "Z"], [(0, 2), (1, 3)])
    c1 = EvidenceChain(steps=(RetrievedTriple(0, 0.0),), orientation="f", targets=(2, 3))
    c2 = EvidenceChain(steps=(RetrievedTriple(1, 0.0),), orientation="f", targets=(3, 4))
    merged = merge_multi_entity([c1, c2], {0, 1}, g)
    assert all(c.targets == (3,) for c in merged)


def test_merge_multi_entity_disjoint_targets_unchanged():
    g = graph_of_edges(["Q1", "Q2", "X", "Y"], [(0, 2), (1, 3)])
    c1 = EvidenceChain(steps=(RetrievedTriple(0, 0.0),), orientation="f", targets=(2,))
    c2 = EvidenceChain(steps=(RetrievedTriple(1, 0.0),), orientation="f", targets=(3,))
    assert merge_multi_entity([c1, c2], {0, 1}, g) == [c1, c2]


def test_merge_multi_entity_three_sources_one_block():
    g = graph_of_edges(["Q1", "Q2", "Q3", "W", "V"], [(0, 3), (1, 3), (2, 3)])
    chains = [
        EvidenceChain(steps=(RetrievedTriple(i, 0.0),), orientation="f", targets=(3, 4) if i == 0 else (3,))
        for i in range(3)
    ]
    merged = merge_multi_entity(chains, {0, 1, 2}, g)
    assert all(c.targets == (3,) for c in merged)


def test_merge_multi_entity_inactive_for_single_entity():
    g = graph_of_edges(["Q", "X"], [(0, 1)])
    c = EvidenceChain(steps=(RetrievedTriple(0, 0.0),), orientation="f", targets=(1,))
    assert merge_multi_entity([c, c], {0}, g) == [c, c]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_merge_multi_entity_properties(data):
    n = data.draw(st.integers(2, 8))
    chains, edges = [], []
    for i in range(n):
        source = data.draw(st.integers(0, 5))
        targets = sorted(data.draw(st.sets(st.integers(10, 15), min_size=1, max_size=3)))
        edges.append((source, targets[0]))
        chains.append(EvidenceChain(steps=(RetrievedTriple(i, 0.0),), orientation="f", targets=tuple(targets)))
    g = graph_of_edges([f"e{i}" for i in range(16)], edges)
    merged = merge_multi_entity(chains, set(range(6)), g)
    # contiguous blocks sharing the intersection of their targets, then the untouched chains
    assert multi_entity_blocks(merged, chains, g) is not None
    # merging never invents or loses chains
    assert sorted(c.tid_sequence() for c in merged) == sorted(c.tid_sequence() for c in chains)


def test_render_evidence_line_multi_target_braces():
    g = graph_of_edges(["Q", "A1", "A2"], [(0, 1)], ["r1"])
    chain = EvidenceChain(steps=(RetrievedTriple(0, 0.0),), orientation="f", targets=(1, 2))
    assert render_evidence_line(chain, g) == "Q → [r1] → {A1, A2}"


def test_render_evidence_line_ends_at_its_one_target():
    # a multi-entity merge can leave a chain one target that is not its last step's end
    g = graph_of_edges(["Q", "M", "A", "B"], [(0, 1), (1, 2)], ["r1", "r2"])
    chain = EvidenceChain(steps=(RetrievedTriple(0, 0.0), RetrievedTriple(1, 0.0)), orientation="f", targets=(3,))
    assert render_evidence_line(chain, g) == "Q → [r1] → M → [r2] → B"


def test_render_evidence_line_backward_marker():
    g = graph_of_edges(["D", "Q"], [(0, 1)], ["r3"])
    chain = EvidenceChain(steps=(RetrievedTriple(0, 0.0),), orientation="b", targets=(0,))
    assert render_evidence_line(chain, g) == "Q → [r3⁻] → D"


def test_build_qa_prompt_lists_each_chain():
    g, sub = subgraph_from_lines(["Q r1 A", "Q r2 B"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=1)
    req = build_qa_prompt("what does Q touch", chains, g)
    evidence_lines = [l for l in req.user_text.splitlines() if l.startswith("- ")]
    assert len(evidence_lines) == 2
    assert "JSON list" in req.user_text


def test_build_qa_prompt_no_evidence_marker():
    req = build_qa_prompt("anything", [], graph_from_lines("A r B"))
    assert "(no evidence retrieved)" in req.user_text


def test_build_qa_prompt_deterministic():
    g, sub = subgraph_from_lines(["Q r1 A"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=1)
    assert build_qa_prompt("q", chains, g).user_text == build_qa_prompt("q", chains, g).user_text


def test_qa_demo_explanation_flag():
    demo = QADemo(
        question="d?",
        evidence=("X → [r] → Y",),
        answers=("Y",),
        explanation="because",
    )
    g = graph_from_lines("X r Y")
    with_expl = build_qa_prompt("q", [], g, demos=[demo], include_explanations=True)
    without = build_qa_prompt("q", [], g, demos=[demo], include_explanations=False)
    assert "Explanation: because" in with_expl.user_text
    assert "Explanation" not in without.user_text


def test_flat_prompt_differs_from_chain_prompt():
    g, sub = subgraph_from_lines(["Q r1 A", "A r2 B"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=2)
    chain_req = build_qa_prompt("q", chains, g)
    flat_req = build_flat_qa_prompt("q", sub, g)
    assert chain_req.user_text != flat_req.user_text
    assert "Facts:" in flat_req.user_text


def test_chains_serialization_keeps_label_alignment_when_orders_differ():
    # entity ids sort (zebra < apple) by load order while labels sort the
    # other way; the round trip must not cross the pairs
    g, sub = subgraph_from_lines(["Q r1 zebra", "Q r1 apple"])
    chains = merge_multi_answer(expand_chains(sub, {g.entity_ids["Q"]}, g, max_len=1), g)
    record = chains_to_record("qy", chains, g)
    assert record["chains"][0]["targets"] == ["zebra", "apple"]
    loaded = chains_from_record(record, g)
    for orig, back in zip(chains, loaded):
        assert orig.targets == back.targets


def test_a_chain_whose_steps_do_not_connect_is_refused():
    """A chain is checked as a pool path is: read backward, the second step of a r b, b s c
    enters at c, not at a, where the first one leaves."""
    g = graph_from_lines("a r b", "b s c")
    chain = {"tids": [0, 1], "triples": g.triple_labels([0, 1]), "scores": [1.0, 0.5], "merged": [],
             "orientation": "b", "targets": ["a"]}
    with pytest.raises(KGFormatError, match=re.escape("chains[0]: path broken: step b s c (b) does not start at a")):
        chains_from_record({"question_id": "q", "chains": [chain]}, g)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 6)), min_size=1, max_size=10),
    scores=st.lists(st.floats(-1, 1), min_size=10, max_size=10),
    queries=st.sets(st.integers(0, 6), min_size=1, max_size=3),
    max_len=st.sampled_from([1, 2, None]),
    parallel=st.booleans(),
)
def test_chains_serialization_round_trip(rows, scores, queries, max_len, parallel):
    """What expand and both merges give, with either orientation, multi-entity groups and, as an
    entity scorer retrieves them, parallel triples merged into one step, comes back from
    chains.jsonl unchanged and renders the same evidence lines."""
    g, sub = subgraph_from_lines([f"e{h} r{r} e{t}" for h, r, t in rows], dict(enumerate(scores)))
    if parallel:
        reps = ViewTables(g, HashedBowEncoder(2)).parallel
        sub = top_k([(tid, sub[tid].score) for tid in reps.tids], len(sub), reps.merged)
    query_ids = {g.entity_ids[f"e{q}"] for q in queries if f"e{q}" in g.entity_ids}
    chains = merge_multi_entity(merge_multi_answer(expand_chains(sub, query_ids, g, max_len), g), query_ids, g)
    sink = io.StringIO()
    write_chains(sink, [chains_to_record("qz", chains, g)])
    loaded = read_chains(io.StringIO(sink.getvalue()), g, ["qz"])["qz"]
    assert loaded == chains
    assert [render_evidence_line(c, g) for c in loaded] == [render_evidence_line(c, g) for c in chains]
