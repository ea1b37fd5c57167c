"""The failure contract: a damaged input makes the stage that reads it exit 0, 2, 3 or 4, never
end in a traceback, and a value of another JSON type in a field the reader reads exits with
the input's own code (2 for ingest inputs and the replay store, 3 for an upstream artifact).

Each example damages one input of a finished fixture pipeline (trained for one epoch, so that
``train`` stays cheap) in one of four ways: it cuts the file at a random byte, or, at any depth
of one record, drops a key, gives one value another JSON type or empties a non-empty list. A
cut that drops a whole record of an artifact with one record per question exits 3.
"""

import base64
import contextlib
import io
import json
import math
import shutil
import struct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kgrag import llm
from kgrag.cli import EXIT_BACKEND, EXIT_CONFIG, EXIT_MISSING, EXIT_OK, main

from conftest import DATA, write_fixture_config

# input -> the command that reads it, and its exit code for a value of the wrong type
INPUTS = {
    "kg.jsonl": (["ingest"], EXIT_CONFIG),
    "questions-in.jsonl": (["ingest"], EXIT_CONFIG),
    "out/graph.json": (["candidates"], EXIT_MISSING),
    "out/questions.jsonl": (["candidates"], EXIT_MISSING),
    "out/questions.compiled.jsonl": (["candidates"], EXIT_MISSING),
    "out/pool.jsonl": (["refine"], EXIT_MISSING),
    "out/supervision.jsonl": (["train"], EXIT_MISSING),
    "out/model.json": (["retrieve"], EXIT_MISSING),
    "out/retrieval.jsonl": (["reorganize"], EXIT_MISSING),
    "out/chains.jsonl": (["answer"], EXIT_MISSING),
    "out/answers.jsonl": (["evaluate"], EXIT_MISSING),
    "replay.jsonl": (["answer", "--llm", "replay"], EXIT_CONFIG),
}
# fields written for people and tools, which no stage reads back
NOT_READ = {
    "out/chains.jsonl": set(),
    "out/answers.jsonl": {"raw_text", "prompt_sha256", "usage"},
}
# artifacts that hold exactly one record per question, so that a record cut away exits 3
ONE_PER_QUESTION = {"out/pool.jsonl", "out/retrieval.jsonl", "out/chains.jsonl", "out/answers.jsonl"}
# fields that hold null or a value of one type
NULLABLE = {"scope": list}

_SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2.5, 2.5) | st.text("ab1 ", max_size=4)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A finished pipeline over a JSONL copy of the fixture graph, a replay store recorded
    from the mock's answers, and the bytes of every file in it."""
    root = tmp_path_factory.mktemp("contract")
    with (DATA / "fixture_kg.tsv").open(encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    rows.append(["madrid", "capital_of", "espa\u00f1a"])  # so that a cut can fall inside a character
    lines = [json.dumps(dict(zip("hrt", row)), ensure_ascii=False) + "\n" for row in rows]
    (root / "kg.jsonl").write_text("".join(lines), encoding="utf-8")
    shutil.copy(DATA / "fixture_questions.jsonl", root / "questions-in.jsonl")
    paths = {"kg": str(root / "kg.jsonl"), "questions": str(root / "questions-in.jsonl"),
             "work_dir": str(root / "out"), "replay": str(root / "replay.jsonl")}
    cfg = write_fixture_config(root, kg_format="jsonl", paths=paths, training={"epochs": 1})
    store = llm.ReplayStore(root / "replay.jsonl")
    complete = llm.MockOracle.complete

    def recorded(self, req):
        result = complete(self, req)
        store.put(llm.request_digest(req), result.text, result.prompt_tokens, result.completion_tokens)
        return result

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(llm.MockOracle, "complete", recorded)
        for stage in ("ingest", "candidates", "refine", "train", "retrieve", "reorganize", "answer", "evaluate"):
            assert main([stage, "--config", str(cfg)]) == EXIT_OK, stage
    return root, cfg, {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _paths(value, path=()):
    """The key path of every value below ``value``, with the value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,), child
        yield from _paths(child, path + (key,))


def _corrupt(name: str, content: bytes, data) -> tuple[bytes, bool]:
    """``content`` damaged one way drawn from ``data``, and whether a field the reader reads
    now holds a value of another JSON type."""
    how = data.draw(st.sampled_from(["cut", "drop", "retype", "empty"]), label="how")
    if how == "cut":
        return content[: data.draw(st.integers(0, len(content) - 1), label="cut at")], False
    lines = content.decode("utf-8").splitlines()
    line = data.draw(st.integers(0, len(lines) - 1), label="line")
    record = json.loads(lines[line])
    paths = [
        p for p, value in _paths(record)
        if how == "retype"
        or (how == "drop" and isinstance(p[-1], str))
        or (how == "empty" and type(value) is list and value)
    ]
    assume(paths)  # a record may hold no list to empty
    path = data.draw(st.sampled_from(paths), label="path")
    parent = record
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]]
    retyped = False
    if how == "drop":
        del parent[path[-1]]
    elif how == "empty":
        parent[path[-1]] = []
    else:
        new = data.draw(_VALUES.filter(lambda v: type(v) is not type(old)), label="new value")
        parent[path[-1]] = new
        retyped = not (
            (type(old) is float and type(new) is int)  # an integer where a number is read
            or (path[-1] in NULLABLE and type(new) in (type(None), NULLABLE[path[-1]]))
            or NOT_READ.get(name, set()) & set(path)
        )
    lines[line] = json.dumps(record, ensure_ascii=False)
    return ("\n".join(lines) + "\n").encode("utf-8"), retyped


def _restore(root, files) -> None:
    """Put back the finished pipeline's files: a stage that succeeds rewrites what it writes."""
    for path, content in files.items():
        path.write_bytes(content)
    for stray in set(root.rglob("*")) - set(files):
        if stray.is_file():
            stray.unlink()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(INPUTS)), data=st.data())
def test_a_damaged_input_exits_with_a_documented_code(pipeline, name, data):
    root, cfg, files = pipeline
    _restore(root, files)
    content, retyped = _corrupt(name, files[root / name], data)
    (root / name).write_bytes(content)
    command, wrong_type_exit = INPUTS[name]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([*command, "--config", str(cfg)])
    assert "Traceback" not in err.getvalue()
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_MISSING, EXIT_BACKEND), err.getvalue()
    if retyped:
        assert rc == wrong_type_exit, err.getvalue()
    if name in ONE_PER_QUESTION and len(content.splitlines()) < len(files[root / name].splitlines()):
        assert rc == EXIT_MISSING, err.getvalue()


_STEP_SCORES = [
    (name, command, producer, value)
    for name, command, producer in (
        ("out/retrieval.jsonl", "reorganize", "retrieve"), ("out/chains.jsonl", "answer", "reorganize")
    )
    for value in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize(
    "name, command, producer, value",
    [("out/model.json", "retrieve", "train", math.nan), *_STEP_SCORES],
    ids=[  # the first two as they were named before the other cases came
        "out/model.json-retrieve-train", "out/retrieval.jsonl-reorganize-retrieve",
        "out/retrieval.jsonl-reorganize-retrieve-Infinity", "out/retrieval.jsonl-reorganize-retrieve--Infinity",
        "out/chains.jsonl-answer-reorganize-NaN", "out/chains.jsonl-answer-reorganize-Infinity",
        "out/chains.jsonl-answer-reorganize--Infinity",
    ],
)
def test_a_non_finite_number_exits_3_naming_its_producer(pipeline, name, command, producer, value):
    """A NaN model weight, or a score that is NaN, Infinity or -Infinity (the only floats a stage
    reads back from a JSONL artifact, from retrieval.jsonl and chains.jsonl), is a damaged
    artifact: the reader exits 3 and names the stage to rerun, and writes nothing."""
    root, cfg, files = pipeline
    _restore(root, files)
    lines = files[root / name].decode("utf-8").splitlines()
    record = json.loads(lines[0])
    if name == "out/model.json":
        record["weights"]["b_out"]["data"] = base64.b64encode(struct.pack("<d", value)).decode()
    elif name == "out/chains.jsonl":
        record["chains"][0]["scores"][0] = value
    else:
        record["scores"][0] = value
    lines[0] = json.dumps(record)
    (root / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", str(cfg)])
    assert rc == EXIT_MISSING, err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert f"rerun `kgrag {producer}`" in err.getvalue()
    problem = "weight 'b_out' holds NaN" if name == "out/model.json" else "scores must be a finite number"
    assert problem in err.getvalue()
    assert all(path.read_bytes() == content for path, content in files.items() if path != root / name)
    _restore(root, files)
