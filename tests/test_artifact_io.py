import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import KGFormatError, load_kg, published, read_by_question, read_jsonl, write_jsonl
from kgrag.retriever.subgraph import read_step, read_subgraphs, steps_from_record

# non-ASCII text, including characters other line splitters treat as breaks
_TEXT = st.text(st.sampled_from("az \u00e9\u6f22 \x85\u2028\"\\\n"), max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_RECORDS = st.lists(st.dictionaries(_TEXT, _JSON, max_size=4), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(_RECORDS)
def test_written_records_read_back_unchanged_and_a_cut_last_line_is_named(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.jsonl"
        with published(path) as sink:
            write_jsonl(sink, records)
        with path.open(encoding="utf-8") as source:
            assert read_jsonl(source, dict) == records
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == len(records)
        path.write_text(text[: -len("}\n")], encoding="utf-8")
        with path.open(encoding="utf-8") as source, pytest.raises(KGFormatError) as err:
            read_jsonl(source, dict)
        assert err.value.line == len(records)


def test_read_jsonl_skips_blank_lines_and_names_line_and_field():
    lines = ['{"a": 1}\n', "\n", "  \n", '{"a": "x"}\n']
    with pytest.raises(KGFormatError, match=r"line 4: field 'a'"):
        read_jsonl(lines, lambda rec: int(rec["a"]))
    with pytest.raises(KGFormatError, match=r"line 1: missing field 'b'"):
        read_jsonl(lines, lambda rec: rec["b"])
    with pytest.raises(KGFormatError, match="line 2: expected a JSON object"):
        read_jsonl(['{"a": 1}', "[1]"], dict)


@pytest.mark.parametrize(
    "field, value",
    [("tids", ["z"]), ("scores", ["s"]), ("triples", [["a", "r"]]), ("id", 5)],
)
def test_retrieval_record_error_names_the_field(field, value):
    g = load_kg(["a\tr\tb\n"])
    record = {"id": "q", "tids": [0], "triples": [["a", "r", "b"]], "scores": [1.0], field: value}
    with pytest.raises(KGFormatError, match=f"line 1: field '{field}'"):
        read_subgraphs([json.dumps(record)], g, ["q"])


@pytest.mark.parametrize(
    "relation, accepted",
    [
        ("r", True),
        ("r | s", True),  # an entity scorer merges the parallel triple a s b into triple 0
        ("r | s | u", True),
        ("r | u", True),  # a scope can leave a parallel triple out
        ("r | s | r", False),  # a label repeats
        ("r | u | s", False),  # the merge lists parallel triples in rising id order
        ("s", False),  # another triple's own label
        ("s | r", False),  # the merge names triple 0's own label first
        ("r | t", False),  # a t b is not a triple
        ("r | ", False),
        ("invented", False),
        ("r | v | w", True),  # a parallel triple's label may itself hold " | "
        ("r | s | u | v | w", True),
        ("r | u | v | w", True),
        ("r | v", False),  # part of a label
        ("r | w", False),
        ("r | v | w | s", False),
    ],
)
def test_retrieved_relation_is_the_triples_own_label_or_its_merge(relation, accepted):
    g = load_kg(["a\tr\tb\n", "a\ts\tb\n", "b\tt\ta\n", "a\tu\tb\n", "a\tv | w\tb\n"])
    record = {"id": "q", "tids": [0], "triples": [["a", relation, "b"]], "scores": [1.0]}
    if accepted:
        ((step,),) = read_subgraphs([json.dumps(record)], g, ["q"]).values()
        assert step.relation == relation
    else:
        with pytest.raises(KGFormatError, match=f"line 1: retrieved triple 0 has relation {relation!r}"):
            read_subgraphs([json.dumps(record)], g, ["q"])


_RELATIONS = ["r", "s", "v | w", "v", "w"]  # a label may hold " | ", and its parts be labels too


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_record_reads_as_its_steps_read_one_at_a_time(data):
    entity = st.sampled_from(["e0", "e1", "e2"])
    rows = data.draw(st.lists(st.tuples(entity, st.sampled_from(_RELATIONS), entity), min_size=1, max_size=12))
    g = load_kg([f"{h}\t{r}\t{t}\n" for h, r, t in rows])
    scope = data.draw(st.none() | st.sets(st.sampled_from(range(len(g.storage)))))
    view = g if scope is None else g.restrict(scope)
    tids, triples = [], []
    for _ in range(data.draw(st.integers(0, 4))):
        tid = data.draw(st.integers(-1, len(g.storage)))
        if data.draw(st.booleans()):
            # the triple's own labels, its relation merged with some of its parallel triples';
            # an id out of range shows those of the triple a wrapped index would give
            own, col = tid % len(g.storage), g.storage
            h, r, t = g.triple_labels([own])[0]
            parallel = [o for o in view.out_index.get(col.head[own], ()) if o > own and col.tail[o] == col.tail[own]]
            kept = [g.relations[col.relation[o]] for o in parallel if data.draw(st.booleans())]
            labels = [h, " | ".join([r, *kept]), t]
        else:
            relation = " | ".join(data.draw(st.lists(st.sampled_from(_RELATIONS), min_size=1, max_size=3)))
            labels = [data.draw(entity), relation, data.draw(entity)]
        tids.append(tid)
        triples.append(labels)
    scores = [float(-i) for i in range(len(tids))]
    record = {"tids": tids, "triples": triples, "scores": scores}
    try:
        expected = tuple(read_step(view, *step) for step in zip(tids, triples, scores))
    except KGFormatError as exc:
        with pytest.raises(KGFormatError) as err:
            steps_from_record(record, view)
        assert str(err.value) == str(exc)
    else:
        assert steps_from_record(record, view) == expected


def test_a_record_with_two_faults_names_its_first():
    g = load_kg(["a\tr\tb\n"])
    record = {"tids": [0, 5], "triples": [["b", "r", "a"], ["a", "r", "b"]], "scores": [1.0, 0.5]}
    with pytest.raises(KGFormatError, match="retrieved triple 0 joins a to b, not b to a"):
        steps_from_record(record, g)


def test_read_jsonl_keeps_the_line_of_a_numbered_error():
    def parse(rec):
        raise KGFormatError("nested", line=7)

    with pytest.raises(KGFormatError) as err:
        read_jsonl(['{"a": 1}'], parse)
    assert err.value.line == 7


@pytest.mark.parametrize(
    "lines, shown",
    [
        (['{"id": "q2"}', '{"id": "q1"}', '{"id": "q2"}'], "line 3: a second record for question 'q2'"),
        (['{"id": "q1"}', '{"id": "q3"}'], "line 2: question 'q3' is not in questions.jsonl"),
        (['{"id": "q2"}'], "no line holds question 'q1'"),
        (['{"id": 1}'], "line 1: field 'id'"),
        (['{"question_id": "q1"}'], "line 1: missing field 'id'"),
    ],
    ids=["repeated", "unknown", "missing", "id-int", "no-id"],
)
def test_read_by_question_refuses_a_record_of_no_question_or_of_the_same_one(lines, shown):
    with pytest.raises(KGFormatError, match=re.escape(shown)):
        read_by_question(lines, dict, "id", ["q1", "q2"])


def test_read_by_question_keeps_line_order_and_may_allow_a_missing_record():
    lines = ['{"id": "q2", "v": 2}', "", '{"id": "q1", "v": 1}']
    value = lambda rec: rec["v"]  # noqa: E731
    assert list(read_by_question(lines, value, "id", ["q1", "q2"]).items()) == [("q2", 2), ("q1", 1)]
    assert read_by_question(lines[:1], value, "id", ["q1", "q2"], every=False) == {"q2": 2}


def test_no_dict_of_read_jsonl_under_src():
    """``kg.read_by_question`` is the one reader of a per-question artifact: no stage keys the
    records of ``read_jsonl`` itself, where a repeated id would silently win."""
    root = Path(__file__).resolve().parents[1] / "src" / "kgrag"
    hits = [
        f"{path.relative_to(root)}:{lineno}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "dict(read_jsonl(" in line
    ]
    assert not hits, hits


def test_inverse_mark_only_in_refiner_constant():
    """``refiner.INVERSE_MARK`` is the one spelling of the inverse-relation mark under src/kgrag."""
    root = Path(__file__).resolve().parents[1] / "src" / "kgrag"
    hits = [
        f"{path.relative_to(root)}:{lineno}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "\u207b" in line and (path.name, line) != ("refiner.py", 'INVERSE_MARK = "\u207b"')
    ]
    assert not hits, hits


def test_published_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "report.json"
    with published(path) as sink:
        sink.write("x\r\n")
    assert path.read_bytes() == b"x\r\n"
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]
