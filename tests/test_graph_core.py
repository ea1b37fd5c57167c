"""The graph core: multi-source hop distances, ordered incidence and the label codec."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import BACKWARD, FORWARD, hop_distances, load_kg

from conftest import graph_from_lines
from oracles import directed_distance, undirected_distance


def _random_view(data):
    """A random graph (self-loops and parallel edges likely) and a random scope of it."""
    n_entities = data.draw(st.integers(1, 8))
    entity = st.integers(0, n_entities - 1)
    rows = data.draw(st.lists(st.tuples(entity, st.integers(0, 2), entity), min_size=1, max_size=30))
    g = load_kg(io.StringIO("\n".join(f"e{h}\trel{r}\te{t}" for h, r, t in rows)), "tsv")
    scope = data.draw(st.none() | st.sets(st.sampled_from(range(len(g.triples)))))
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
            tr = g.triples[tid]
            if tr.head == e:
                expected.append((tid, FORWARD))
            elif tr.tail == e:
                expected.append((tid, BACKWARD))
        assert view.steps(e) == expected


def test_steps_count_a_self_loop_once_as_forward():
    g = graph_from_lines("A loop A", "B r A", "A r B")
    assert g.steps(g.entity_ids["A"]) == [(0, FORWARD), (1, BACKWARD), (2, FORWARD)]


def test_triple_id_of_on_a_scoped_view():
    g = graph_from_lines("A r1 B", "B r2 C", "A r1 C")
    a, b, c = (g.entity_ids[x] for x in "ABC")
    r1, r2 = g.relation_ids["r1"], g.relation_ids["r2"]
    view = g.restrict([1])
    assert view.triple_id_of(b, r2, c) == 1
    assert view.triple_id_of(a, r1, b) is None
    assert view.restrict([0, 1]).triple_id_of(a, r1, c) is None
    assert g.restrict([0, 1, 2]).triple_id_of(a, r1, c) == 2
    assert g.triple_id_of(a, r2, b) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_label_codec_on_random_views(data):
    g, view = _random_view(data)
    visible = set(view.triple_ids)
    for tid, tr in enumerate(g.triples):
        labels = g.labels(tr)
        assert labels == [g.entity_label(tr.head), g.relation_label(tr.relation), g.entity_label(tr.tail)]
        assert g.resolve(*labels) == tid
        expected = tid if tid in visible else None
        assert view.triple_id_of(*tr) == expected
        assert view.resolve(*labels) == expected
    assert view.resolve("e0", "no-such-relation", "e0") is None
    assert view.resolve("no-such-entity", "rel0", "e0") is None
