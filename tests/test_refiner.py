import io
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import KGFormatError, ReasoningPath
from kgrag.llm import CompletionResult, MockOracle
from kgrag.pool import PROV_ANSWER, PROV_QUERY, PROV_SHORTEST, build_pool
from kgrag.refiner import (
    RefineDemo,
    RefineError,
    SelectionParseError,
    build_refine_prompt,
    candidate_order,
    parse_selection,
    read_supervision,
    refine,
    render_path,
    supervision_from_record,
    supervision_to_record,
    write_supervision,
)

from conftest import graph_from_lines, make_question


class ScriptedClient:
    tag = "scripted"

    def __init__(self, text):
        self.text = text
        self.requests = []

    def complete(self, req):
        self.requests.append(req)
        return CompletionResult(self.text, 1, 1, "mock")


def test_textualize_two_step_forward():
    g = graph_from_lines("A r1 B", "B r2 C")
    assert render_path(g, (0, 1), ("f", "f")) == "A → [r1] → B → [r2] → C"


def test_textualize_single_triple():
    g = graph_from_lines("A r1 B")
    assert render_path(g, (0,), ("f",)) == "A → [r1] → B"


def test_textualize_reverse_orientation_marker():
    g = graph_from_lines("C r1 A")
    assert render_path(g, (0,), ("b",)) == "A → [r1⁻] → C"


def _pool_fixture():
    g = graph_from_lines("Q r1 A", "Q r2 B", "B r3 C", "Q r4 C")
    q = make_question(g, ["Q"], ["C"], text="what does Q reach")
    pool = build_pool(g, q)
    return g, q, pool


def test_build_refine_prompt_enumerates_all_candidates():
    g, q, pool = _pool_fixture()
    req = build_refine_prompt(q, pool, g)
    numbered = [line for line in req.user_text.splitlines() if line[:2] in {f"{i}." for i in range(1, 10)}]
    assert len(numbered) == len(pool)
    assert "Question: what does Q reach" in req.user_text


def test_build_refine_prompt_without_demos_has_single_block():
    g, q, pool = _pool_fixture()
    req = build_refine_prompt(q, pool, g)
    assert "Selected:" not in req.user_text


def test_build_refine_prompt_with_demo_block():
    g, q, pool = _pool_fixture()
    demo = RefineDemo(
        question="demo?",
        chains=("X → [r] → Y",),
        selection=(1,),
        explanation="the chain ends at the answer",
    )
    req = build_refine_prompt(q, pool, g, demos=[demo])
    assert "Question: demo?" in req.user_text
    assert "Selected: 1" in req.user_text
    assert "Explanation: the chain ends at the answer" in req.user_text


def test_build_refine_prompt_deterministic_bytes():
    g, q, pool = _pool_fixture()
    assert build_refine_prompt(q, pool, g).user_text == build_refine_prompt(q, pool, g).user_text


def test_build_refine_prompt_rejects_empty_pool():
    g, q, _ = _pool_fixture()
    with pytest.raises(RefineError, match="question .*: empty candidate pool"):
        build_refine_prompt(q, [], g)
    with pytest.raises(RefineError, match="question .*: empty candidate pool"):  # refine's check is this one
        refine(q, [], g, ScriptedClient("1"))


def test_candidate_order_truncates_by_provenance_priority():
    pool = [(ReasoningPath((tid,), ("f",)), prov) for tid, prov in enumerate([PROV_ANSWER, PROV_SHORTEST, PROV_QUERY])]
    assert candidate_order(pool, limit=2) == [1, 2]


def test_parse_selection_basic():
    assert parse_selection("1, 3", 4) == [1, 3]


def test_parse_selection_dedup_and_range_filter():
    assert parse_selection("Paths 2 and 2 and 9", 4) == [2]


def test_parse_selection_failure_signal():
    with pytest.raises(SelectionParseError):
        parse_selection("none of these help", 4)


def test_parse_selection_uses_first_digit_line():
    assert parse_selection("no numbers here\n2, 3\n4", 4) == [2, 3]


def test_refine_with_mock_extracts_answer_paths():
    g, q, pool = _pool_fixture()
    mock = MockOracle({q.text: {"C"}})
    sup = refine(q, pool, g, mock)
    # mock keeps exactly the chains ending at C
    expected_triples = set()
    for p, _ in pool:
        if p.terminal(g) == g.entity_ids["C"]:
            expected_triples.update(p.triple_ids)
    assert sup.positive_triples == expected_triples
    assert sup.refiner_tag == "mock"


def test_refine_falls_back_to_shortest_paths_on_garbage():
    g, q, pool = _pool_fixture()
    client = ScriptedClient("I cannot help with that")
    sup = refine(q, pool, g, client)
    weak = set()
    for p, prov in pool:
        if prov == PROV_SHORTEST:
            weak.update(p.triple_ids)
    assert sup.positive_triples == weak


def test_refine_empty_pool_errors_before_llm_call():
    g, q, _ = _pool_fixture()
    client = ScriptedClient("1")
    with pytest.raises(RefineError):
        refine(q, [], g, client)
    assert client.requests == []


def test_refine_fallback_nonempty_when_shortest_paths_exist():
    g, q, pool = _pool_fixture()
    client = ScriptedClient("garbage with no digits")
    sup = refine(q, pool, g, client)
    assert sup.positive_triples


def test_refine_containment_property():
    g, q, pool = _pool_fixture()
    mock = MockOracle({q.text: {"C"}})
    sup = refine(q, pool, g, mock)
    all_triples = set()
    for p, _ in pool:
        all_triples.update(p.triple_ids)
    assert sup.positive_triples <= all_triples


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_extraction_matches_selection_union(data):
    g, q, pool = _pool_fixture()
    indices = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=len(pool), unique=True)
    )
    response = ", ".join(str(i + 1) for i in indices)
    client = ScriptedClient(response)
    sup = refine(q, pool, g, client)
    expected = set()
    for i in indices:
        expected.update(pool[i][0].triple_ids)
    assert sup.positive_triples == expected


def test_pool_limit_truncation_maps_back_to_pool_positions():
    g = graph_from_lines("Q r1 A", "Q r2 B", "Q r3 C")
    q = make_question(g, ["Q"], ["C"], text="limited")
    pool = [(ReasoningPath((tid,), ("f",)), prov) for tid, prov in enumerate([PROV_QUERY, PROV_QUERY, PROV_SHORTEST])]
    client = ScriptedClient("1")  # first prompted candidate
    sup = refine(q, pool, g, client, limit=2)
    # provenance priority puts the shortest-path entry first in the prompt
    assert sup.positive_triples == set(pool[2][0].triple_ids)


def test_pool_truncation_is_logged_once_per_question(caplog):
    g = graph_from_lines("Q r1 A", "Q r2 B", "Q r3 C")
    q = make_question(g, ["Q"], ["C"], text="limited")
    pool = [(ReasoningPath((tid,), ("f",)), PROV_QUERY) for tid in range(3)]
    with caplog.at_level(logging.WARNING, logger="kgrag.refiner"):
        refine(q, pool, g, ScriptedClient("1"), limit=2)
    assert [r.getMessage() for r in caplog.records] == ["candidate pool 3 exceeds limit 2; truncating"]


def test_supervision_cache_round_trip():
    g, q, pool = _pool_fixture()
    mock = MockOracle({q.text: {"C"}})
    sup = refine(q, pool, g, mock)
    record = supervision_to_record(q.id, sup, g)
    loaded = supervision_from_record(record, g)
    assert loaded.positive_triples == sup.positive_triples
    assert loaded.refiner_tag == "mock"

    sink = io.StringIO()
    write_supervision(sink, [record])
    cache = read_supervision(io.StringIO(sink.getvalue()), g, [q.id])
    assert cache[q.id].positive_triples == sup.positive_triples


def test_load_refine_demos_from_file(tmp_path):
    from kgrag.refiner import load_refine_demos

    path = tmp_path / "demos.json"
    path.write_text(
        '[{"question": "d?", "chains": ["X → [r] → Y"], "selection": [1], "explanation": "ends at the answer"}]'
    )
    demos = load_refine_demos(path)
    assert len(demos) == 1
    assert demos[0].selection == (1,)
    assert demos[0].explanation == "ends at the answer"

    g, q, pool = _pool_fixture()
    req = build_refine_prompt(q, pool, g, demos=demos)
    assert "Question: d?" in req.user_text


def test_supervision_caches_can_be_set_combined():
    g = graph_from_lines("A r1 B", "B r2 C")
    a, b = (
        supervision_from_record({"tids": ids, "triples": g.triple_labels(ids), "refiner_tag": "t"}, g).positive_triples
        for ids in ([0], [0, 1])
    )
    assert (a, b) == ({0}, {0, 1})  # triple ids
    assert a & b == a
    assert a | b == b


@pytest.mark.parametrize("ids", [[1, 0, 1], [0, 0], [1, 0]], ids=["repeat-and-descend", "repeat", "descend"])
def test_supervision_ids_are_refused_unless_strictly_ascending(ids):
    g = graph_from_lines("A r1 B", "B r2 C")
    record = {"tids": ids, "triples": g.triple_labels(ids), "refiner_tag": "t"}
    with pytest.raises(KGFormatError, match="supervision triple ids repeat or are out of ascending order"):
        supervision_from_record(record, g)
