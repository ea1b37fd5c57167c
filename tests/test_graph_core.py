"""The graph core: multi-source hop distances, ordered incidence, the label codec and the
graph compiled at ingest."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgrag.cli import EXIT_OK, main
from kgrag.kg import BACKWARD, FORWARD, KGFormatError, KnowledgeGraph, _Storage, hop_distances, load_kg, to_compiled
from kgrag.kg import triples_from_record, triples_to_record

from conftest import graph_from_lines, write_fixture_config
from oracles import directed_distance, undirected_distance


def _random_view(data):
    """A random graph (self-loops and parallel edges likely) and a random scope of it."""
    n_entities = data.draw(st.integers(1, 8))
    entity = st.integers(0, n_entities - 1)
    rows = data.draw(st.lists(st.tuples(entity, st.integers(0, 2), entity), min_size=1, max_size=30))
    g = load_kg(io.StringIO("\n".join(f"e{h}\trel{r}\te{t}" for h, r, t in rows)), "tsv")
    scope = data.draw(st.none() | st.sets(st.sampled_from(range(len(g.storage)))))
    return g, (g if scope is None else g.restrict(scope))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hop_distances_match_oracles(data):
    g, view = _random_view(data)
    edges = [(tid, tr.head, tr.tail) for tid, tr in view.iter_triples()]
    anchors = data.draw(st.sets(st.integers(0, len(g.entities) - 1), min_size=1, max_size=3))
    assert hop_distances(view, anchors, "out") == directed_distance(edges, anchors, reverse=False)
    assert hop_distances(view, anchors, "in") == directed_distance(edges, anchors, reverse=True)
    nearest: dict[int, int] = {}
    for a in anchors:
        for e, d in undirected_distance(edges, a).items():
            nearest[e] = min(d, nearest.get(e, d))
    assert hop_distances(view, anchors, "both") == nearest
    assert hop_distances(view, anchors) == nearest


def _anchors_and_direction(data, g):
    entity = st.integers(0, len(g.entities) - 1)
    anchors = data.draw(st.sets(entity, min_size=1, max_size=3))
    return anchors, data.draw(st.sampled_from(["out", "in", "both"])), entity


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hop_distances_stopped_at_targets_agree_with_the_full_search(data):
    g, view = _random_view(data)
    anchors, direction, entity = _anchors_and_direction(data, g)
    targets = data.draw(st.sets(entity, max_size=4))
    full = hop_distances(view, anchors, direction)
    stopped = hop_distances(view, anchors, direction, targets=targets)
    assert stopped.items() <= full.items()
    if not targets <= full.keys():  # a target out of reach: the search runs to the end
        assert stopped == full
        return
    farthest = max((full[t] for t in targets), default=0)
    assert targets <= stopped.keys()
    assert {e for e, d in stopped.items() if d < farthest} == {e for e, d in full.items() if d < farthest}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hop_distances_to_a_depth_are_the_full_search_up_to_it(data):
    g, view = _random_view(data)
    anchors, direction, _ = _anchors_and_direction(data, g)
    depth = data.draw(st.integers(0, 4))
    full = hop_distances(view, anchors, direction)
    assert hop_distances(view, anchors, direction, depth=depth) == {e: d for e, d in full.items() if d <= depth}


def test_hop_distances_stop_at_the_last_target_or_run_on_for_an_unreachable_one():
    g = graph_from_lines("A r B", "B r C", "C r D", "D r E", "X r Y")
    a, b, c, y = (g.entity_ids[lab] for lab in "ABCY")
    assert hop_distances(g, [a], targets=[b]) == {a: 0, b: 1}
    assert hop_distances(g, [a], targets=[c, b]) == {a: 0, b: 1, c: 2}
    assert hop_distances(g, [a], targets=[a]) == {a: 0}
    assert hop_distances(g, [a], targets=[b, y]) == hop_distances(g, [a]) == dict(zip(range(5), range(5)))
    assert hop_distances(g, [c], depth=1) == {c: 0, b: 1, g.entity_ids["D"]: 1}


def test_hop_distances_rejects_unknown_direction():
    g = graph_from_lines("A r B")
    with pytest.raises(ValueError, match="direction"):
        hop_distances(g, [0], "sideways")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_steps_match_brute_force_scan(data):
    g, view = _random_view(data)
    for e in range(len(g.entities)):
        expected = []
        for tid in sorted(view.triple_ids):
            tr = g.triple(tid)
            if tr.head == e:
                expected.append((tid, FORWARD))
            elif tr.tail == e:
                expected.append((tid, BACKWARD))
        assert view.steps(e) == expected


def test_steps_count_a_self_loop_once_as_forward():
    g = graph_from_lines("A loop A", "B r A", "A r B")
    assert g.steps(g.entity_ids["A"]) == [(0, FORWARD), (1, BACKWARD), (2, FORWARD)]


def test_a_view_reads_a_triple_column_over_the_stored_triples():
    """A view reads a triple column and restricts over the stored triples, as its graph does."""
    g = graph_from_lines("A r1 B", "B r2 C", "A r1 C")
    view = g.restrict([1])
    assert triples_from_record(triples_to_record(g, [1, 0]), view) == (1, 0)
    assert view.restrict([0, 2]).triple_ids == (0, 2)
    assert triples_from_record(triples_to_record(view, [2]), g.restrict([0, 1, 2])) == (2,)
    with pytest.raises(ValueError, match=re.escape("triple 0 is ['A', 'r1', 'B'] in the graph, not ['A', 'r2', 'B']")):
        triples_from_record({"tids": [0], "triples": [["A", "r2", "B"]]}, view)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_label_codec_on_random_views(data):
    g, view = _random_view(data)
    for tid in range(len(g.storage)):
        tr = g.triple(tid)
        [labels] = g.triple_labels([tid])
        assert labels == [g.entity_label(tr.head), g.relation_label(tr.relation), g.entity_label(tr.tail)]
    tids = data.draw(st.lists(st.sampled_from(range(len(g.storage))), max_size=6))
    record = json.loads(json.dumps(triples_to_record(view, tids)))  # any stored id, as JSON reads it
    assert triples_from_record(record, g) == triples_from_record(record, view) == tuple(tids)
    for step, tid in enumerate(tids):  # a label that is not the graph's, or not in it at all
        for field, other in ((1, "no-such-relation"), (0, record["triples"][step][2] + "x")):
            damaged = json.loads(json.dumps(record))
            damaged["triples"][step][field] = other
            with pytest.raises(ValueError, match=f"triple {tid} is"):
                triples_from_record(damaged, view)
    for tid in (-1, len(g.storage)):
        with pytest.raises(KGFormatError, match=f"triple id {tid} not in graph"):
            triples_from_record({"tids": [tid], "triples": [["e0", "rel0", "e0"]]}, view)


# labels that survive the TSV round trip: no tab or line feed, nothing to strip at the ends
_LABEL = st.text(st.sampled_from("a\u00e9\u6f22 \u2028"), min_size=1, max_size=3).map(lambda lab: f"x{lab}x")


def _same_graph(compiled, tsv) -> None:
    assert compiled.entities == tsv.entities
    assert compiled.relations == tsv.relations
    assert [compiled.triple(t) for t in range(len(compiled.storage))] == [tsv.triple(t) for t in range(len(tsv.storage))]
    assert compiled.storage.triple_index == tsv.storage.triple_index
    assert compiled.triple_ids == tsv.triple_ids
    assert compiled.out_index == tsv.out_index
    assert compiled.in_index == tsv.in_index


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_compiled_graph_loads_as_its_tsv(data):
    rows = data.draw(st.lists(st.tuples(_LABEL, _LABEL, _LABEL), max_size=12))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []  # repeated rows
    rows += [(h, r, h) for h, r, _ in rows[:2]]  # self-loops
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "kg.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")
        (tmp / "questions.jsonl").write_text("", encoding="utf-8")
        cfg = write_fixture_config(tmp, paths={"kg": str(tmp / "kg.tsv"), "questions": str(tmp / "questions.jsonl")})
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
            first = (out / "graph.json").read_bytes()
            assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
        assert (out / "graph.json").read_bytes() == first
        tsv = load_kg(io.BytesIO((out / "graph.tsv").read_bytes()), "tsv")
        compiled = load_kg(io.BytesIO(first), "compiled")
    _same_graph(compiled, tsv)
    # plain lists of Python ints, as the TSV reader builds them: a numpy scalar would not
    # serialise through write_jsonl, and the empty graph is checked too
    for column in (compiled.storage.head, compiled.storage.relation, compiled.storage.tail):
        assert type(column) is list
        assert all(type(x) is int for x in column)
    for _ in range(3):
        scope = data.draw(st.sets(st.sampled_from(range(len(tsv))))) if len(tsv) else set()
        _same_graph(compiled.restrict(scope), tsv.restrict(scope))
        assert list(compiled.restrict(scope).iter_triples()) == list(tsv.restrict(scope).iter_triples())


_ID_ROWS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)), max_size=10)


@settings(max_examples=60, deadline=None)
@given(_ID_ROWS)
@example([(0, 0, 1), (0, 1, 1), (0, 0, 1)])  # the repeat is not next to itself in (head, tail) order
def test_the_compiled_reader_finds_a_repeated_triple_as_a_set_would(rows):
    """Parallel triples (one head and tail, other relations) load; a repeated id triple does not,
    however many rows share its head and tail."""
    columns = ([row[i] for row in rows] for i in range(3))
    sink = io.StringIO()
    to_compiled(KnowledgeGraph.from_columns(["a", "b", "c"], ["r", "s"], _Storage(*columns)), sink)
    if len(set(rows)) < len(rows):
        with pytest.raises(KGFormatError, match="a triple repeats"):
            load_kg(io.StringIO(sink.getvalue()), "compiled")
    else:
        assert [tuple(t) for _, t in load_kg(io.StringIO(sink.getvalue()), "compiled").iter_triples()] == rows
