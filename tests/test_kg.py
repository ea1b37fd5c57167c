import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import (
    BACKWARD,
    FORWARD,
    KGFormatError,
    ReasoningPath,
    Triple,
    load_compiled_questions,
    load_kg,
    load_questions,
    to_compiled_questions,
    to_tsv,
    working_graph,
)

from conftest import graph_from_lines, make_question


def test_load_collapses_duplicates():
    g = graph_from_lines("A r1 B", "B r2 C", "A r1 B")
    assert len(g) == 2
    assert len(g.entities) == 3
    assert len(g.relations) == 2


def test_load_empty_stream():
    g = load_kg(io.StringIO(""), "tsv")
    assert len(g) == 0
    assert g.entities == []


def test_load_reports_line_number_on_bad_arity():
    with pytest.raises(KGFormatError) as err:
        load_kg(io.StringIO("A\tr1"), "tsv")
    assert err.value.line == 1
    assert "line 1" in str(err.value)


def test_load_accepts_byte_streams():
    g = load_kg(io.BytesIO("A\tr1\tB\nB\tr2\tC\n".encode("utf-8")), "tsv")
    assert len(g) == 2
    assert g.entities == ["A", "B", "C"]


def test_a_byte_stream_splits_only_at_line_feeds():
    # a file is decoded whole, so its lines must break where iterating the file breaks them
    source = "A\u2028B\tr1\tC\x0bD\r\nE\x85G\tr2\tF".encode("utf-8")
    g = load_kg(io.BytesIO(source), "tsv")
    assert g.entities == ["A\u2028B", "C\x0bD", "E\x85G", "F"]


@pytest.mark.parametrize("fmt, line", [("tsv", "A\tr1\tB\n"), ("jsonl", '{"h": "A", "r": "r1", "t": "B"}\n')])
def test_a_line_that_is_not_utf8_is_named(fmt, line):
    source = (line * 2).encode("utf-8") + b"C\xff\tr1\tD\n" + line.encode("utf-8")
    with pytest.raises(KGFormatError, match="line 3: not UTF-8"):
        load_kg(io.BytesIO(source), fmt)


def test_load_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        load_kg(io.StringIO("A\tr\tB"), "xml")


def test_load_jsonl_format():
    lines = [json.dumps({"h": "A", "r": "likes", "t": "B"})]
    g = load_kg(io.StringIO("\n".join(lines)), "jsonl")
    assert len(g) == 1
    assert g.entity_label(g.triple(0).head) == "A"


def test_load_jsonl_bad_record_names_line():
    with pytest.raises(KGFormatError, match="line 2"):
        load_kg(io.StringIO('{"h":"A","r":"r","t":"B"}\n{"h":"A"}'), "jsonl")


def test_ids_assigned_first_seen_order():
    g = graph_from_lines("A r1 B", "C r2 A")
    assert g.entities == ["A", "B", "C"]
    assert g.relations == ["r1", "r2"]
    assert g.triple(0) == Triple(0, 0, 1)
    assert g.triple(1) == Triple(2, 1, 0)


def test_neighbors_directions():
    g = graph_from_lines("A r1 B", "C r2 A")
    assert g.steps(g.entity_ids["A"]) == [(0, FORWARD), (1, BACKWARD)]
    assert g.steps(g.entity_ids["B"]) == [(0, BACKWARD)]
    assert g.steps(g.entity_ids["C"]) == [(1, FORWARD)]


def test_neighbors_self_loop_appears_once_in_both():
    g = graph_from_lines("A loop A", "A r1 B")
    assert g.steps(g.entity_ids["A"]) == [(0, FORWARD), (1, FORWARD)]


def test_steps_of_an_entity_with_no_triple_in_the_view():
    g = graph_from_lines("A r1 B", "C r2 D")
    view = g.restrict([0])
    assert view.steps(g.entity_ids["D"]) == []
    assert view.steps(g.entity_ids["A"]) == [(0, FORWARD)]


def test_working_graph_full_scope_equals_graph():
    g = graph_from_lines("A r1 B", "B r2 C", "A r3 C")
    q = make_question(g, ["A"], ["C"], scope=[0, 1, 2])
    view = working_graph(g, q)
    assert list(view.iter_triples()) == list(g.iter_triples())


def test_working_graph_empty_scope():
    g = graph_from_lines("A r1 B", "B r2 C")
    q = make_question(g, ["A"], ["C"], scope=[])
    assert len(working_graph(g, q)) == 0


def test_working_graph_partial_scope_rebuilds_indices():
    g = graph_from_lines("A r1 B", "B r2 C", "A r3 C")
    q = make_question(g, ["A"], ["C"], scope=[0])
    view = working_graph(g, q)
    assert view.triple_ids == (0,)
    # brute-force index rebuild over the view's triples
    expected_out: dict[int, list[int]] = {}
    expected_in: dict[int, list[int]] = {}
    for tid, tr in view.iter_triples():
        expected_out.setdefault(tr.head, []).append(tid)
        expected_in.setdefault(tr.tail, []).append(tid)
    assert view.out_index == expected_out
    assert view.in_index == expected_in


def test_working_graph_unknown_scope_id_raises():
    g = graph_from_lines("A r1 B")
    q = make_question(g, ["A"], ["B"], scope=[7])
    with pytest.raises(KeyError):
        working_graph(g, q)


def test_no_scope_returns_same_object():
    g = graph_from_lines("A r1 B")
    q = make_question(g, ["A"], ["B"])
    assert working_graph(g, q) is g


def test_tsv_round_trip_identical():
    g = graph_from_lines("A r1 B", "B r2 C", "C r1 A")
    sink = io.StringIO()
    to_tsv(g, sink)
    g2 = load_kg(io.StringIO(sink.getvalue()), "tsv")
    assert g2.entities == g.entities
    assert g2.relations == g.relations
    assert [g2.triple(t) for t in range(len(g2.storage))] == [g.triple(t) for t in range(len(g.storage))]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_index_soundness_random_graphs(data):
    n_entities = data.draw(st.integers(2, 12))
    n_triples = data.draw(st.integers(0, 40))
    rows = []
    for _ in range(n_triples):
        h = data.draw(st.integers(0, n_entities - 1))
        t = data.draw(st.integers(0, n_entities - 1))
        r = data.draw(st.integers(0, 3))
        rows.append(f"e{h}\trel{r}\te{t}")
    g = load_kg(io.StringIO("\n".join(rows)), "tsv")
    for e in range(len(g.entities)):
        for tid in g.out_index.get(e, []):
            assert g.triple(tid).head == e
        for tid in g.in_index.get(e, []):
            assert g.triple(tid).tail == e
        both = [tid for tid, _ in g.steps(e)]
        assert both == sorted(set(g.out_index.get(e, [])) | set(g.in_index.get(e, [])))


def test_index_soundness_large_random_graph():
    import numpy as np

    rng = np.random.default_rng(7)
    rows = [
        f"e{rng.integers(0, 800)}\trel{rng.integers(0, 20)}\te{rng.integers(0, 800)}"
        for _ in range(10_000)
    ]
    g = load_kg(io.StringIO("\n".join(rows)), "tsv")
    for e in range(len(g.entities)):
        assert all(g.triple(t).head == e for t in g.out_index.get(e, []))
        assert all(g.triple(t).tail == e for t in g.in_index.get(e, []))


def test_reasoning_path_validation():
    g = graph_from_lines("A r1 B", "B r2 C")
    good = ReasoningPath((0, 1), ("f", "f"))
    good.validate(g)
    bad = ReasoningPath((1, 0), ("f", "f"))
    with pytest.raises(ValueError):
        bad.validate(g)
    with pytest.raises(ValueError):
        ReasoningPath((), ())
    with pytest.raises(ValueError):
        ReasoningPath((0,), ("x",))


def test_reasoning_path_reverse_orientation_connectivity():
    g = graph_from_lines("C r1 A")
    path = ReasoningPath((0,), ("b",))
    path.validate(g)
    assert path.source(g) == g.entity_ids["A"]
    assert path.terminal(g) == g.entity_ids["C"]


def test_load_questions_resolves_labels_and_scope():
    g = graph_from_lines("A r1 B", "B r2 C")
    record = {
        "id": "q1",
        "question": "where does A lead",
        "question_entities": ["A"],
        "answer_entities": ["C", "Nowhere"],
        "scope": [["A", "r1", "B"], ["X", "y", "Z"]],
    }
    questions, unresolved = load_questions(io.StringIO(json.dumps(record)), g)
    q = questions[0]
    assert q.query_entities == frozenset({g.entity_ids["A"]})
    assert q.answer_entities == frozenset({g.entity_ids["C"]})
    assert q.scope == frozenset({0})
    assert "Nowhere" in unresolved["q1"]
    assert "X|y|Z" in unresolved["q1"]


def test_load_questions_requires_id_and_question():
    g = graph_from_lines("A r1 B")
    with pytest.raises(KGFormatError, match="line 1"):
        load_questions(io.StringIO('{"id": "q"}'), g)


_LABELS = [f"e{i}" for i in range(6)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_compiled_questions_load_as_their_labels_do(data):
    """What ``ingest`` compiles reads back as the label load of ``questions.jsonl`` reads,
    with the gold answer labels, whether or not the graph is given."""
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from(_LABELS)] * 2), min_size=1, max_size=12), label="rows")
    g = load_kg(io.StringIO("".join(f"{h}\tr\t{t}\n" for h, t in rows)), "tsv")
    labels = st.lists(st.sampled_from(g.entities), max_size=3, unique=True)
    scopes = st.none() | st.lists(st.sampled_from([[h, "r", t] for h, t in rows]), max_size=4)
    records = [
        {"id": f"q{i}", "question": f"question {i}", "question_entities": data.draw(labels, label="query"),
         "answer_entities": data.draw(labels, label="answers"), "scope": data.draw(scopes, label="scope")}
        for i in range(data.draw(st.integers(0, 4), label="questions"))
    ]
    questions, unresolved = load_questions(io.StringIO("".join(json.dumps(r) + "\n" for r in records)), g)
    assert not unresolved
    sha256 = {"graph.tsv": "1" * 64, "graph.json": "2" * 64, "questions.jsonl": "3" * 64}
    sink = io.StringIO()
    to_compiled_questions(questions, g, sink, sha256)
    gold = {r["id"]: frozenset(r["answer_entities"]) for r in records}
    for graph in (g, None):
        assert load_compiled_questions(io.StringIO(sink.getvalue()), sha256, graph) == (questions, gold)
