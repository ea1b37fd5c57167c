import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.kg import KGFormatError, load_kg, published, read_jsonl, write_jsonl
from kgrag.retriever.subgraph import read_subgraphs

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
    [("tids", ["z"]), ("scores", ["s"]), ("triples", [["a", "r"]]), ("k", "k")],
)
def test_retrieval_record_error_names_the_field(field, value):
    g = load_kg(["a\tr\tb\n"])
    record = {"id": "q", "k": 1, "tids": [0], "triples": [["a", "r", "b"]], "scores": [1.0], field: value}
    with pytest.raises(KGFormatError, match=f"line 1: field '{field}'"):
        read_subgraphs([json.dumps(record)], g)


def test_read_jsonl_keeps_the_line_of_a_numbered_error():
    def parse(rec):
        raise KGFormatError("nested", line=7)

    with pytest.raises(KGFormatError) as err:
        read_jsonl(['{"a": 1}'], parse)
    assert err.value.line == 7


def test_published_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "report.json"
    with published(path) as sink:
        sink.write("x\r\n")
    assert path.read_bytes() == b"x\r\n"
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]
