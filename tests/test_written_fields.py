"""Every field a per-question artifact writes is read back: dropping any key, at any depth, of
the first record of ``pool.jsonl``, ``supervision.jsonl``, ``retrieval.jsonl`` or
``chains.jsonl`` makes the stage that reads it exit 3 naming the stage that writes it.

A field that the rest of its record, the graph or the config determines is not written, so no
key here is exempt; this keeps a write-only field from coming back.
"""

import contextlib
import copy
import io
import json

import pytest

from kgrag.cli import EXIT_MISSING, PRODUCER, main

from conftest import write_fixture_config

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


@pytest.mark.parametrize("level", sorted(LEVELS))
def test_dropping_any_written_key_exits_missing_naming_the_producer(tmp_path, level):
    cfg = write_fixture_config(tmp_path, **LEVELS[level])
    with contextlib.redirect_stdout(io.StringIO()):
        for stage in STAGES:
            assert main([stage, "--config", str(cfg)]) == 0, stage
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
