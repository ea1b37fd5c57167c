"""Metamorphic relations: two related inputs whose pipeline outputs stand in an exact relation,
checked on the fixture at both retrieval levels.

- **Duplicate rows.** Copies of graph rows, each after its first occurrence, are collapsed at
  load, so every work-directory file keeps its bytes.
- **Scope locality.** With every question scoped to all fixture triples, triples appended
  outside every scope (new entities, and one triple that touches a fixture entity) leave every
  file after ``ingest`` with its bytes. The appended triples take new ids, so this also checks
  that no artifact depends on the size of the id space.

Not a relation: at entity level, a component added to a question's *unscoped* graph changes
``Messages.scale``, the mean log degree over that graph, and so the scores; it is not asserted.
"""

import contextlib
import io
import json

import pytest

from kgrag.cli import EXIT_OK, OUTPUTS, main

from conftest import DATA, write_fixture_config

LEVELS = {
    "triple": dict(training={"epochs": 5}),
    "entity": dict(
        retrieval_level="entity", top_k=4, entity_k_bonus=4, training={"epochs": 5, "gnn_hidden": 8, "gnn_depth": 2}
    ),
}
AFTER_INGEST = [name for stage, names in OUTPUTS.items() if stage != "ingest" for name in names]


def _fixture() -> tuple[list[list[str]], list[dict]]:
    with (DATA / "fixture_kg.tsv").open(encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    with (DATA / "fixture_questions.jsonl").open(encoding="utf-8") as fh:
        questions = [json.loads(line) for line in fh if line.strip()]
    return rows, questions


def _pipeline(tmp_path, level: str, rows: list[list[str]], questions: list[dict]) -> dict[str, bytes]:
    """Every work-directory file, by name, after all eight stages over ``rows`` and ``questions``."""
    tmp_path.mkdir()
    paths = {"kg": str(tmp_path / "kg.tsv"), "questions": str(tmp_path / "questions.jsonl")}
    (tmp_path / "kg.tsv").write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    (tmp_path / "questions.jsonl").write_text("".join(json.dumps(q) + "\n" for q in questions), encoding="utf-8")
    cfg = write_fixture_config(tmp_path, paths=paths, **LEVELS[level])
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in OUTPUTS:
            assert main([stage, "--config", str(cfg)]) == EXIT_OK, stage
    return {path.name: path.read_bytes() for path in sorted((tmp_path / "out").iterdir())}


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_duplicate_rows_change_no_file(tmp_path, level):
    rows, questions = _fixture()
    duplicated = []
    for i, row in enumerate(rows):
        duplicated.append(row)
        if i % 3 == 2:
            duplicated.append(rows[i // 2])  # a copy of an earlier row, or of this one
    duplicated += rows[::-4]
    assert len(duplicated) > len(rows) + 20
    assert _pipeline(tmp_path / "a", level, duplicated, questions) == _pipeline(tmp_path / "b", level, rows, questions)


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_triples_outside_every_scope_change_no_file_after_ingest(tmp_path, level):
    rows, questions = _fixture()
    scoped = [{**q, "scope": rows} for q in questions]
    outside = [
        ["outpost_a", "ferry_to", "outpost_b"],
        ["outpost_b", "capital", "outpost_c"],  # a fixture relation between new entities
        ["madrid", "twinned_with", "outpost_a"],  # touches a fixture entity
        ["outpost_c", "ferry_to", "outpost_a"],
    ]
    before = _pipeline(tmp_path / "a", level, rows, scoped)
    after = _pipeline(tmp_path / "b", level, rows + outside, scoped)
    assert before["graph.tsv"] != after["graph.tsv"]
    assert {name: after[name] for name in AFTER_INGEST} == {name: before[name] for name in AFTER_INGEST}
