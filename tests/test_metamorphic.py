"""Metamorphic relations: two related inputs whose pipeline outputs stand in an exact relation,
checked on the fixture at both retrieval levels.

- **Duplicate rows.** Copies of graph rows, each after its first occurrence, are collapsed at
  load, so every work-directory file keeps its bytes.
- **Scope locality.** With every question scoped to all fixture triples, triples appended
  outside every scope (new entities, and one triple that touches a fixture entity) leave every
  file after ``ingest`` with its bytes. The appended triples take new ids, so this also checks
  that no artifact depends on the size of the id space.
- **Per-question purity.** A run over a subset of the questions writes, for each of them, the
  record the run over all of them wrote: ``candidates`` and mock ``refine`` from their own
  ``ingest``, and ``retrieve``, ``reorganize`` and ``answer`` from the full run's upstream file
  (its ``model.json``, or its records of the subset). ``train`` is left out: SGD order couples
  the questions.

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


def _config(tmp_path, level: str, rows: list[list[str]], questions: list[dict]):
    """A config over ``rows`` and ``questions``, written with them into ``tmp_path``."""
    tmp_path.mkdir()
    paths = {"kg": str(tmp_path / "kg.tsv"), "questions": str(tmp_path / "questions.jsonl")}
    (tmp_path / "kg.tsv").write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    (tmp_path / "questions.jsonl").write_text("".join(json.dumps(q) + "\n" for q in questions), encoding="utf-8")
    return write_fixture_config(tmp_path, paths=paths, **LEVELS[level])


def _run(cfg, *stages: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in stages:
            assert main([stage, "--config", str(cfg)]) == EXIT_OK, stage


def _pipeline(tmp_path, level: str, rows: list[list[str]], questions: list[dict]) -> dict[str, bytes]:
    """Every work-directory file, by name, after all eight stages over ``rows`` and ``questions``."""
    _run(_config(tmp_path, level, rows, questions), *OUTPUTS)
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


QUESTION_KEY = {"pool.jsonl": "id", "supervision.jsonl": "question_id", "retrieval.jsonl": "id",
                "chains.jsonl": "question_id", "answers.jsonl": "id"}
"""The field that holds the question id, per per-question artifact."""


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_a_question_gets_the_same_record_in_a_run_over_a_subset(tmp_path, level):
    rows, questions = _fixture()
    full = _pipeline(tmp_path / "full", level, rows, questions)
    subset = questions[1::3] + questions[-1:]
    ids = {q["id"] for q in subset}
    filtered = {
        name: b"".join(line for line in full[name].splitlines(keepends=True) if json.loads(line)[key] in ids)
        for name, key in QUESTION_KEY.items()
    }
    cfg = _config(tmp_path / "subset", level, rows, subset)
    out = tmp_path / "subset" / "out"
    _run(cfg, "ingest", "candidates", "refine")
    (out / "model.json").write_bytes(full["model.json"])
    _run(cfg, "retrieve")
    written = {name: (out / name).read_bytes() for name in ("pool.jsonl", "supervision.jsonl", "retrieval.jsonl")}
    for stage, upstream, name in [
        ("reorganize", "retrieval.jsonl", "chains.jsonl"),
        ("answer", "chains.jsonl", "answers.jsonl"),
    ]:
        (out / upstream).write_bytes(filtered[upstream])
        _run(cfg, stage)
        written[name] = (out / name).read_bytes()
    assert len(filtered["pool.jsonl"].splitlines()) == len(subset) < len(questions)
    assert written == filtered
