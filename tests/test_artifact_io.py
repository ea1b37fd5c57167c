import ast
import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import KGFormatError, load_kg, published, read_by_question, read_jsonl, triples_to_record, write_jsonl
from kgrag.retriever.subgraph import RetrievedTriple, read_subgraphs, relation_text, steps_from_record, steps_to_record

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
    record = {"id": "q", "tids": [0], "triples": [["a", "r", "b"]], "scores": [1.0], "merged": [], field: value}
    with pytest.raises(KGFormatError, match=f"line 1: field '{field}'"):
        read_subgraphs([json.dumps(record)], g, ["q"])


def test_a_non_finite_number_is_not_written_and_the_previous_file_stays(tmp_path):
    path = tmp_path / "retrieval.jsonl"
    with published(path) as sink:
        write_jsonl(sink, [{"id": "q", "scores": [0.5]}])
    before = path.read_bytes()
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError), published(path) as sink:
            write_jsonl(sink, [{"id": "q", "scores": [value]}])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


# a b holds triples 0 (r), 1 (s), 3 (u) and 4, whose label "v | w" holds the merge's separator
_PARALLEL = ["a\tr\tb\n", "a\ts\tb\n", "b\tt\ta\n", "a\tu\tb\n", "a\tv | w\tb\n"]


def _one_step(g, tid, merged):
    """The retrieval record of one step, triple ``tid``, with the ``merged`` groups given."""
    return json.dumps({"id": "q", **triples_to_record(g, [tid]), "scores": [1.0], "merged": merged})


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
    """The relations a step of triple 0 can show are its own label and, merged by id, that label
    and the labels of some of its parallel triples in ascending id; ids keep a merge whose labels
    hold " | " unambiguous. The ``triples`` column holds the triple's own labels only."""
    g = load_kg(_PARALLEL)
    shown = set()
    for n in range(4):
        for others in itertools.combinations([1, 3, 4], n):
            ((step,),) = read_subgraphs([_one_step(g, 0, [[0, *others]] if others else [])], g, ["q"]).values()
            assert step.merged == others
            shown.add(relation_text(g, step))
    assert (relation in shown) == accepted
    if relation != "r":
        record = {"id": "q", "tids": [0], "triples": [["a", relation, "b"]], "scores": [1.0], "merged": []}
        with pytest.raises(KGFormatError, match=re.escape(f"line 1: field 'triples': triple 0 is ['a', 'r', 'b']")):
            read_subgraphs([json.dumps(record)], g, ["q"])


@pytest.mark.parametrize(
    "tid, merged, relation",
    [(0, [], "r"), (0, [[0, 1]], "r | s"), (0, [[0, 1, 3, 4]], "r | s | u | v | w"), (1, [[1, 3]], "s | u")],
    ids=["own", "parallel", "all-parallel", "above-a-later-step"],
)
def test_a_merge_of_parallel_ids_above_its_step_reads_back(tid, merged, relation):
    g = load_kg(_PARALLEL)
    ((step,),) = read_subgraphs([_one_step(g, tid, merged)], g, ["q"]).values()
    assert (relation_text(g, step), step.merged) == (relation, tuple(merged[0][1:]) if merged else ())
    assert steps_to_record([step], g)["merged"] == merged


@pytest.mark.parametrize(
    "tid, merged, shown",
    [
        (0, [[0, 1], [0, 3]], "is not a step grouped once"),
        (0, [[0, 1, 1]], "ascending ids above it"),  # a repeat
        (0, [[0, 3, 1]], "ascending ids above it"),  # descending
        (3, [[3, 1]], "ascending ids above it"),  # below the step
        (0, [[0, 2]], "merged triple 2 does not join a to b"),  # b t a
        (0, [[1, 3]], "is not a step"),
        (0, [[0, 5]], "merged triple id 5 not in graph"),
        (0, [[0]], "ascending ids above it"),  # a lone id
        (0, [[]], "is not a step"),
    ],
    ids=["grouped-twice", "repeat", "descending", "below-the-step", "not-parallel", "first-not-a-step",
         "out-of-range", "lone", "empty"],
)
def test_a_merge_group_is_refused_unless_parallel_ids_above_one_step(tid, merged, shown):
    g = load_kg(_PARALLEL)
    with pytest.raises(KGFormatError, match=f"line 1: .*{re.escape(shown)}"):
        read_subgraphs([_one_step(g, tid, merged)], g, ["q"])


_RELATIONS = ["r", "s", "v | w", "v", "w"]  # a label may hold " | ", and its parts be labels too


def _expected_steps(g, tids, triples, scores, groups):
    """The steps a record reads as, by the rule written out: each step in order must name a stored
    triple, with its labels; then each group must start at a step no other group starts at and
    go on with one or more ascending ids above it, each of a stored triple joining the same ends,
    and the step holds their ids. Returns the steps and None, or None and what is refused: the
    error type and message for a step, the type for a group."""
    s, steps = g.storage, []
    for tid, labels, score in zip(tids, triples, scores):
        if not 0 <= tid < len(s):
            return None, (KGFormatError, f"triple id {tid} not in graph")
        own = [g.entities[s.head[tid]], g.relations[s.relation[tid]], g.entities[s.tail[tid]]]
        if labels != own:
            return None, (ValueError, f"triple {tid} is {own} in the graph, not {labels!r}")
        steps.append(RetrievedTriple(tid, score))
    starts = [group[0] for group in groups if group]
    for group in groups:
        ok = (
            len(group) > 1 and group[0] in tids and starts.count(group[0]) == 1
            and list(group) == sorted(set(group)) and group[-1] < len(s)
            and all((s.head[o], s.tail[o]) == (s.head[group[0]], s.tail[group[0]]) for o in group[1:])
        )
        if not ok:
            return None, (KGFormatError, None)
        i = tids.index(group[0])
        steps[i] = steps[i]._replace(merged=tuple(group[1:]))
    return tuple(steps), None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_record_reads_as_its_steps_read_one_at_a_time(data):
    entity = st.sampled_from(["e0", "e1", "e2"])
    rows = data.draw(st.lists(st.tuples(entity, st.sampled_from(_RELATIONS), entity), min_size=1, max_size=8))
    more = data.draw(st.lists(st.sampled_from(_RELATIONS), max_size=len(rows)))
    rows += [(h, r, t) for (h, _, t), r in zip(rows, more)]  # triples parallel to the first ones
    g = load_kg([f"{h}\t{r}\t{t}\n" for h, r, t in rows])
    scope = data.draw(st.none() | st.sets(st.sampled_from(range(len(g.storage)))))
    view = g if scope is None else g.restrict(scope)
    n = len(g.storage)
    # mostly ids of the graph with their labels, so that most records have steps to merge
    tids = data.draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    if tids and not data.draw(st.integers(0, 7)):  # an id out of range
        tids[data.draw(st.integers(0, len(tids) - 1))] = data.draw(st.sampled_from([-1, n]))
    triples = []
    for tid in tids:
        if data.draw(st.integers(0, 7)):  # its own labels; an id out of range, a wrapped index's
            triples.append(g.triple_labels([tid % n])[0])
        else:
            triples.append([data.draw(entity), data.draw(st.sampled_from(_RELATIONS)), data.draw(entity)])
    groups, col = [], g.storage
    for tid in tids:
        ends = (col.head[tid % n], col.tail[tid % n])
        parallel = [o for o in range(tid + 1, n) if 0 <= tid and (col.head[o], col.tail[o]) == ends]
        if parallel and data.draw(st.integers(0, 3)):  # some of the triples parallel to it
            groups.append([tid, *data.draw(st.lists(st.sampled_from(parallel), min_size=1, unique=True).map(sorted))])
    if data.draw(st.booleans()):  # one more group: of any ids, or one that breaks a rule
        tid = data.draw(st.sampled_from(tids)) if tids else 0
        group = data.draw(st.sampled_from(groups)) if groups else [tid, tid + 1]
        broken = [
            [tid], [tid, tid + 1], [tid, n],  # lone, maybe not parallel, past the graph
            group, [group[0], *group[:0:-1]],  # a step grouped twice, ids reversed
            [*group, group[-1]], [group[0], group[0] - 1],  # an id repeated, an id below the step
        ]
        extra = data.draw(st.sampled_from(broken) | st.lists(st.integers(-1, n), max_size=3))
        groups.insert(data.draw(st.integers(0, len(groups))), extra)
    scores = [float(-i) for i in range(len(tids))]
    record = {"tids": tids, "triples": triples, "scores": scores, "merged": groups}
    expected, refused = _expected_steps(view, tids, triples, scores, groups)
    if refused:
        error, message = refused
        with pytest.raises(error) as err:
            steps_from_record(record, view)
        assert message is None or str(err.value) == message
    else:
        steps = steps_from_record(record, view)
        assert steps == expected
        # a step shows its own label, followed by the labels of the triples merged into it
        column = view.storage.relation
        assert [relation_text(view, step) for step in steps] == [
            " | ".join(view.relations[column[x]] for x in (step.tid, *step.merged)) for step in expected
        ]


def test_a_record_with_two_faults_names_its_first():
    g = load_kg(["a\tr\tb\n"])
    record = {"tids": [0, 5], "triples": [["b", "r", "a"], ["a", "r", "b"]], "scores": [1.0, 0.5], "merged": []}
    with pytest.raises(ValueError, match=re.escape("triple 0 is ['a', 'r', 'b'] in the graph, not ['b', 'r', 'a']")):
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


def test_only_kg_names_the_triple_column():
    """``kg.triples_to_record`` and ``kg.triples_from_record`` are the one writer and reader of a
    triple column: no other module under src/kgrag holds the string "tids" or "triples"."""
    root = Path(__file__).resolve().parents[1] / "src" / "kgrag"
    hits = [
        f"{path.relative_to(root)}:{node.lineno}: {node.value!r}"
        for path in sorted(root.rglob("*.py"))
        if path != root / "kg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in ("tids", "triples")
    ]
    assert not hits, hits


def test_only_the_triple_scorer_module_knows_the_model_file():
    """``retriever.triple_scorer`` is the one writer and reader of model.json: no other module
    under src/kgrag holds its weight type "<f8" or names ``MODEL_FORMAT_VERSION``."""
    root = Path(__file__).resolve().parents[1] / "src" / "kgrag"
    name = "MODEL_FORMAT_VERSION"
    hits = [
        f"{path.relative_to(root)}:{getattr(node, 'lineno', '?')}: {ast.dump(node)}"
        for path in sorted(root.rglob("*.py"))
        if path != root / "retriever" / "triple_scorer.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Constant) and node.value == "<f8")
        or (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
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


def test_one_function_joins_a_rendered_path_and_one_a_merged_relation():
    """Under src/kgrag, ``" → ".join`` is called in ``refiner.render_path`` only, and ``" | ".join``
    in ``retriever.subgraph.relation_text`` only: every chain renders through the one, and every
    merged relation through the other."""
    root = Path(__file__).resolve().parents[1] / "src" / "kgrag"
    joins = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "join"
                and isinstance(node.func.value, ast.Constant) and node.func.value.value in (" → ", " | ")
            ):
                owner = node
                while owner in parent and not isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner = parent[owner]
                where = owner.name if isinstance(owner, ast.FunctionDef) else "module level"
                joins.append((node.func.value.value, f"{path.relative_to(root).as_posix()}: {where}"))
    assert sorted(joins) == [(" | ", "retriever/subgraph.py: relation_text"), (" → ", "refiner.py: render_path")]


def test_published_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "report.json"
    with published(path) as sink:
        sink.write("x\r\n")
    assert path.read_bytes() == b"x\r\n"
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]
