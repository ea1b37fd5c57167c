"""Every field a per-question artifact writes is read back: dropping any key, at any depth, of
the first record of ``pool.jsonl``, ``supervision.jsonl``, ``retrieval.jsonl`` or
``chains.jsonl`` makes the stage that reads it exit 3 naming the stage that writes it.

A field that the rest of its record, the graph or the config determines is not written, so no
key here is exempt; this keeps a write-only field from coming back.

Every value of the first record of ``pool.jsonl`` and ``chains.jsonl`` is also used: for some
other value of its type, the reader either exits 3 naming the producer or changes what it sends
the model. A value that is read, checked and then dropped fails this.
"""

import contextlib
import copy
import io
import json

import pytest

from kgrag import llm
from kgrag.cli import EXIT_MISSING, EXIT_OK, PRODUCER, main
from kgrag.kg import BACKWARD, FORWARD
from kgrag.pool import PROV_ANSWER, PROV_QUERY, PROV_SHORTEST

from conftest import DATA, write_fixture_config

STAGES = ("ingest", "candidates", "refine", "train", "retrieve", "reorganize")
# the stage that reads each artifact
READER = {"pool.jsonl": "refine", "supervision.jsonl": "train", "retrieval.jsonl": "reorganize", "chains.jsonl": "answer"}
LEVELS = {
    "triple": dict(training={"epochs": 5}),
    "entity": dict(
        retrieval_level="entity", top_k=4, entity_k_bonus=4, training={"epochs": 5, "gnn_hidden": 8, "gnn_depth": 2}
    ),
}


def _key_paths(value, path=()):
    """The path of every key of every object below ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        if isinstance(key, str):
            yield path + (key,)
        yield from _key_paths(child, path + (key,))


def _without(record: dict, path: tuple) -> dict:
    record = copy.deepcopy(record)
    parent = record
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return record


def _run(cfg, stages):
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in stages:
            assert main([stage, "--config", str(cfg)]) == EXIT_OK, stage


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_dropping_any_written_key_exits_missing_naming_the_producer(tmp_path, level):
    cfg = write_fixture_config(tmp_path, **LEVELS[level])
    _run(cfg, STAGES)
    failures, tried = [], 0
    for name, reader in READER.items():
        path = tmp_path / "out" / name
        original = path.read_text(encoding="utf-8")
        first, rest = original.split("\n", 1)
        record = json.loads(first)
        for key_path in _key_paths(record):
            tried += 1
            path.write_text(json.dumps(_without(record, key_path)) + "\n" + rest, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([reader, "--config", str(cfg)])
            if rc != EXIT_MISSING or f"rerun `kgrag {PRODUCER[name]}`" not in err.getvalue():
                failures.append((name, key_path, rc))
        path.write_text(original, encoding="utf-8")
    assert failures == []
    assert tried > 50  # the first records hold several paths and chains


# a chain's ``scores`` are the step column it shares with retrieval.jsonl: reorganize orders the
# chains by them, and the prompt shows the chains in that order, not the scores
EXEMPT = {("chains.jsonl", "scores")}


def _leaves(value, path=()):
    """The key path and value of every number, string and null below ``value``."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(child, path + (key,))
    else:
        yield path, value


def _with(record: dict, path: tuple, value) -> dict:
    record = copy.deepcopy(record)
    parent = record
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return record


def _others(value, choices: list[list[str]]) -> list:
    """A few other values of ``value``'s type: another number, or another member of the first
    of ``choices`` (graph labels, question ids, allowed choices) that holds ``value``."""
    if value is None or isinstance(value, (int, float)) and not isinstance(value, bool):
        return [7 if value is None else value + 1]
    held = next((options for options in choices if value in options), [])
    return [option for option in held if option != value][:3]


def _sent_to_model(cfg, reader: str) -> tuple[int, str, object]:
    """Exit code, stderr and what ``reader`` sent the model: refine's requests, or the
    ``prompt_sha256`` of each answer."""
    requests, complete = [], llm.MockOracle.complete

    def recorded(self, request):
        requests.append((request.system_text, request.user_text))
        return complete(self, request)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(llm.MockOracle, "complete", recorded)
        rc = main([reader, "--config", str(cfg)])
    if reader == "answer" and rc == EXIT_OK:
        with (cfg.parent / "out" / "answers.jsonl").open(encoding="utf-8") as fh:
            requests = [json.loads(line)["prompt_sha256"] for line in fh]
    return rc, err.getvalue(), requests


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_every_written_value_changes_what_the_reader_does(tmp_path, level):
    cfg = write_fixture_config(tmp_path, **LEVELS[level])
    _run(cfg, STAGES + ("answer",))
    out = tmp_path / "out"
    with (DATA / "fixture_kg.tsv").open(encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    with (out / "questions.jsonl").open(encoding="utf-8") as fh:
        question_ids = [json.loads(line)["id"] for line in fh]
    choices = [
        question_ids,
        sorted({row[0] for row in rows} | {row[2] for row in rows}),
        sorted({row[1] for row in rows}),
        [PROV_SHORTEST, PROV_QUERY, PROV_ANSWER],
        [FORWARD, BACKWARD],
    ]
    unused, tried = [], 0
    for name in ("pool.jsonl", "chains.jsonl"):
        reader, path = READER[name], out / name
        original = path.read_text(encoding="utf-8")
        first, rest = original.split("\n", 1)
        record = json.loads(first)
        baseline = _sent_to_model(cfg, reader)
        assert baseline[0] == EXIT_OK
        for key_path, value in _leaves(record):
            if any((name, key) in EXEMPT for key in key_path):
                continue
            tried += 1
            for other in _others(value, choices):
                path.write_text(json.dumps(_with(record, key_path, other)) + "\n" + rest, encoding="utf-8")
                rc, err, sent = _sent_to_model(cfg, reader)
                if rc == EXIT_MISSING and f"rerun `kgrag {PRODUCER[name]}`" in err or rc == EXIT_OK and sent != baseline[2]:
                    break
            else:
                unused.append((name, key_path, value))
        path.write_text(original, encoding="utf-8")
    assert unused == []
    assert tried > 50  # the first records hold several paths and chains
