import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import load_kg
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
    split_source,
    write_chains,
    QADemo,
)
from kgrag.retriever import HashedBowEncoder, ViewTables
from kgrag.retriever.subgraph import RetrievedTriple, top_k

from conftest import graph_from_lines
from oracles import enumerate_chains, multi_entity_blocks


def entry(tid, head, tail, labels, relation="r", score=0.0):
    return RetrievedTriple(
        tid=tid,
        head=head,
        tail=tail,
        head_label=labels[head],
        relation=relation,
        tail_label=labels[tail],
        score=score,
    )


def subgraph_from_lines(lines, scores=None):
    g = graph_from_lines(*lines)
    entries = []
    for tid, tr in g.iter_triples():
        entries.append(
            RetrievedTriple(
                tid=tid,
                head=tr.head,
                tail=tr.tail,
                head_label=g.entity_label(tr.head),
                relation=g.relation_label(tr.relation),
                tail_label=g.entity_label(tr.tail),
                score=(scores or {}).get(tid, 0.0),
            )
        )
    return g, tuple(entries)


def chain_shape(chain: EvidenceChain):
    return (chain.source, chain.tid_sequence(), (chain.orientation,) * len(chain.steps))


def assert_connected(chain: EvidenceChain):
    """Each step enters where the one before it left, starting at the source."""
    forward = chain.orientation == "f"
    cur = chain.source
    for step in chain.steps:
        assert (step.head if forward else step.tail) == cur, f"broken chain at triple {step.tid}"
        cur = step.tail if forward else step.head
    assert chain.targets


def test_split_source_by_membership():
    g, sub = subgraph_from_lines(["Q r1 B", "B r2 C"])
    src, tgt = split_source(sub, {g.entity_ids["Q"]})
    assert [e.tid for e in src] == [0]
    assert [e.tid for e in tgt] == [1]


def test_split_source_none_anchored():
    g, sub = subgraph_from_lines(["A r1 B"])
    src, tgt = split_source(sub, {g.entity_ids["B"]} - {g.entity_ids["B"]})
    assert src == []
    assert len(tgt) == 1


def test_split_source_tail_membership():
    g, sub = subgraph_from_lines(["A r1 Q"])
    src, _ = split_source(sub, {g.entity_ids["Q"]})
    assert [e.tid for e in src] == [0]


def test_expand_chains_forward_and_backward():
    g, sub = subgraph_from_lines(["Q r1 B", "B r2 C", "D r3 Q"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=2)
    got = {chain_shape(c) for c in chains}
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
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=1)
    assert {chain_shape(c) for c in chains} == {
        (g.entity_ids["Q"], (0,), ("f",)),
        (g.entity_ids["Q"], (2,), ("b",)),
    }


def test_expand_chains_cycle_terminates_without_reuse():
    g, sub = subgraph_from_lines(["Q r1 B", "B r2 Q"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=None)
    got = {chain_shape(c) for c in chains}
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
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=2)
    anchored = {c.anchor().tid for c in chains}
    assert anchored == {0, 1}
    all_tids = {tid for c in chains for tid in c.tid_sequence()}
    assert all_tids <= {0, 1, 2, 3}
    for chain in chains:
        assert_connected(chain)


def test_expand_chains_ordering_by_anchor_score():
    g, sub = subgraph_from_lines(["Q r1 B", "Q r2 C"], scores={0: 0.1, 1: 0.9})
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=1)
    assert [c.anchor().tid for c in chains] == [1, 0]


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
        entries = [
            RetrievedTriple(
                tid=tid,
                head=tr.head,
                tail=tr.tail,
                head_label=g.entity_label(tr.head),
                relation=g.relation_label(tr.relation),
                tail_label=g.entity_label(tr.tail),
                score=0.0,
            )
            for tid, tr in g.iter_triples()
        ]
        sub = tuple(entries)
        queries = {int(rng.integers(0, len(g.entities)))}
        for max_len in (1, 2, None):
            got = {chain_shape(c) for c in expand_chains(sub, queries, max_len)}
            expected = enumerate_chains(
                [(tid, tr.head, tr.tail) for tid, tr in g.iter_triples()], queries, max_len
            )
            assert got == expected


def test_merge_multi_answer_unions_targets():
    g, sub = subgraph_from_lines(["Q r1 A1", "Q r1 A2"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=1)
    merged = merge_multi_answer(chains)
    assert len(merged) == 1
    assert dict(merged[0].targets) == {g.entity_ids["A1"]: "A1", g.entity_ids["A2"]: "A2"}
    assert merged[0].tid_sequence() == (0,)


def test_merge_multi_answer_distinct_sources_not_merged():
    g, sub = subgraph_from_lines(["Q1 r1 A", "Q2 r1 B"])
    chains = expand_chains(sub, {g.entity_ids["Q1"], g.entity_ids["Q2"]}, max_len=1)
    assert len(merge_multi_answer(chains)) == 2


def test_merge_multi_answer_idempotent():
    g, sub = subgraph_from_lines(["Q r1 A1", "Q r1 A2", "Q r2 B"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=1)
    once = merge_multi_answer(chains)
    twice = merge_multi_answer(once)
    assert [chain_shape(c) for c in once] == [chain_shape(c) for c in twice]
    assert [c.targets for c in once] == [c.targets for c in twice]


def test_merge_multi_entity_intersects_targets():
    labels = {0: "Q1", 1: "Q2", 2: "X", 3: "Y", 4: "Z"}
    c1 = EvidenceChain(steps=(entry(0, 0, 2, labels),), orientation="f", targets=((2, "X"), (3, "Y")))
    c2 = EvidenceChain(steps=(entry(1, 1, 3, labels),), orientation="f", targets=((3, "Y"), (4, "Z")))
    merged = merge_multi_entity([c1, c2], {0, 1})
    assert all(c.targets == ((3, "Y"),) for c in merged)


def test_merge_multi_entity_disjoint_targets_unchanged():
    labels = {0: "Q1", 1: "Q2", 2: "X", 3: "Y"}
    c1 = EvidenceChain(steps=(entry(0, 0, 2, labels),), orientation="f", targets=((2, "X"),))
    c2 = EvidenceChain(steps=(entry(1, 1, 3, labels),), orientation="f", targets=((3, "Y"),))
    assert merge_multi_entity([c1, c2], {0, 1}) == [c1, c2]


def test_merge_multi_entity_three_sources_one_block():
    labels = {0: "Q1", 1: "Q2", 2: "Q3", 3: "W", 4: "V"}
    chains = [
        EvidenceChain(
            steps=(entry(i, i, 3, labels),),
            orientation="f",
            targets=((3, "W"), (4, "V")) if i == 0 else ((3, "W"),),
        )
        for i in range(3)
    ]
    merged = merge_multi_entity(chains, {0, 1, 2})
    assert all(c.targets == ((3, "W"),) for c in merged)


def test_merge_multi_entity_inactive_for_single_entity():
    labels = {0: "Q", 1: "X"}
    c = EvidenceChain(steps=(entry(0, 0, 1, labels),), orientation="f", targets=((1, "X"),))
    assert merge_multi_entity([c, c], {0}) == [c, c]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_merge_multi_entity_properties(data):
    n = data.draw(st.integers(2, 8))
    labels = {i: f"s{i}" for i in range(6)} | {10 + i: f"t{i}" for i in range(6)}
    chains = []
    originals = []
    for i in range(n):
        source = data.draw(st.integers(0, 5))
        targets = frozenset(
            data.draw(st.sets(st.integers(10, 15), min_size=1, max_size=3))
        )
        chain = EvidenceChain(
            steps=(entry(i, source, sorted(targets)[0], labels),),
            orientation="f",
            targets=tuple((t, labels[t]) for t in sorted(targets)),
        )
        chains.append(chain)
        originals.append(targets)
    merged = merge_multi_entity(chains, set(range(6)))
    # contiguous blocks sharing the intersection of their targets, then the untouched chains
    assert multi_entity_blocks(merged, chains) is not None
    # merging never invents or loses chains
    assert sorted(c.tid_sequence() for c in merged) == sorted(c.tid_sequence() for c in chains)


def test_render_evidence_line_multi_target_braces():
    labels = {0: "Q", 1: "A1"}
    chain = EvidenceChain(
        steps=(entry(0, 0, 1, labels, relation="r1"),), orientation="f", targets=((1, "A1"), (2, "A2"))
    )
    assert render_evidence_line(chain) == "Q → [r1] → {A1, A2}"


def test_render_evidence_line_ends_at_its_one_target():
    # a multi-entity merge can leave a chain one target that is not its last step's end
    labels = {0: "Q", 1: "M", 2: "A"}
    chain = EvidenceChain(
        steps=(entry(0, 0, 1, labels, relation="r1"), entry(1, 1, 2, labels, relation="r2")),
        orientation="f",
        targets=((3, "B"),),
    )
    assert render_evidence_line(chain) == "Q → [r1] → M → [r2] → B"


def test_render_evidence_line_backward_marker():
    labels = {0: "D", 1: "Q"}
    chain = EvidenceChain(steps=(entry(0, 0, 1, labels, relation="r3"),), orientation="b", targets=((0, "D"),))
    assert render_evidence_line(chain) == "Q → [r3⁻] → D"


def test_build_qa_prompt_lists_each_chain():
    g, sub = subgraph_from_lines(["Q r1 A", "Q r2 B"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=1)
    req = build_qa_prompt("what does Q touch", chains)
    evidence_lines = [l for l in req.user_text.splitlines() if l.startswith("- ")]
    assert len(evidence_lines) == 2
    assert "JSON list" in req.user_text


def test_build_qa_prompt_no_evidence_marker():
    req = build_qa_prompt("anything", [])
    assert "(no evidence retrieved)" in req.user_text


def test_build_qa_prompt_deterministic():
    g, sub = subgraph_from_lines(["Q r1 A"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=1)
    assert build_qa_prompt("q", chains).user_text == build_qa_prompt("q", chains).user_text


def test_qa_demo_explanation_flag():
    demo = QADemo(
        question="d?",
        evidence=("X → [r] → Y",),
        answers=("Y",),
        explanation="because",
    )
    with_expl = build_qa_prompt("q", [], demos=[demo], include_explanations=True)
    without = build_qa_prompt("q", [], demos=[demo], include_explanations=False)
    assert "Explanation: because" in with_expl.user_text
    assert "Explanation" not in without.user_text


def test_flat_prompt_differs_from_chain_prompt():
    g, sub = subgraph_from_lines(["Q r1 A", "A r2 B"])
    chains = expand_chains(sub, {g.entity_ids["Q"]}, max_len=2)
    chain_req = build_qa_prompt("q", chains)
    flat_req = build_flat_qa_prompt("q", sub)
    assert chain_req.user_text != flat_req.user_text
    assert "Facts:" in flat_req.user_text


def test_chains_serialization_keeps_label_alignment_when_orders_differ():
    # entity ids sort (zebra < apple) by load order while labels sort the
    # other way; the round trip must not cross the pairs
    g, sub = subgraph_from_lines(["Q r1 zebra", "Q r1 apple"])
    chains = merge_multi_answer(expand_chains(sub, {g.entity_ids["Q"]}, max_len=1))
    record = chains_to_record("qy", chains, g)
    loaded = chains_from_record(record, g)
    for orig, back in zip(chains, loaded):
        assert dict(orig.targets) == dict(back.targets)


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
        sub = top_k([(tid, sub[tid].score) for tid in reps.tids], len(sub), g, reps.merged)
    query_ids = {g.entity_ids[f"e{q}"] for q in queries if f"e{q}" in g.entity_ids}
    chains = merge_multi_entity(merge_multi_answer(expand_chains(sub, query_ids, max_len)), query_ids)
    sink = io.StringIO()
    write_chains(sink, [chains_to_record("qz", chains, g)])
    loaded = read_chains(io.StringIO(sink.getvalue()), g, ["qz"])["qz"]
    assert loaded == chains
    assert [render_evidence_line(c) for c in loaded] == [render_evidence_line(c) for c in chains]
