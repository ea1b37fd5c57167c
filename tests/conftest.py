import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kgrag.kg import KnowledgeGraph, Question, _Storage, load_kg

DATA = Path(__file__).parent / "data"


def graph_from_lines(*lines: str) -> KnowledgeGraph:
    """Graph from 'head relation tail' strings (spaces become tabs)."""
    tsv = "\n".join("\t".join(line.split()) for line in lines)
    return load_kg(io.StringIO(tsv), "tsv")


def graph_of_edges(
    entities: list[str], edges: list[tuple[int, int]], relations: list[str] | None = None
) -> KnowledgeGraph:
    """Graph over ``entities`` (ids in list order) whose triple i runs from ``edges[i][0]`` to
    ``edges[i][1]`` by the relation ``relations[i]``, ``r`` by default."""
    relations = relations or ["r"] * len(edges)
    names = list(dict.fromkeys(relations))
    storage = _Storage([h for h, _ in edges], [names.index(r) for r in relations], [t for _, t in edges])
    return KnowledgeGraph.from_columns(list(entities), names, storage)


def make_question(
    g: KnowledgeGraph,
    query: list[str],
    answers: list[str],
    qid: str = "q",
    text: str = "test question",
    scope: list[int] | None = None,
) -> Question:
    return Question(
        id=qid,
        text=text,
        query_entities=frozenset(g.entity_ids[label] for label in query),
        answer_entities=frozenset(g.entity_ids[label] for label in answers),
        scope=frozenset(scope) if scope is not None else None,
    )


@pytest.fixture
def fixture_paths() -> dict[str, Path]:
    return {
        "kg": DATA / "fixture_kg.tsv",
        "questions": DATA / "fixture_questions.jsonl",
    }


def write_fixture_config(tmp_path: Path, **overrides) -> Path:
    """Pipeline config for the hand-built 12-question KG, tuned to separate."""
    import json

    config = {
        "paths": {
            "kg": str(DATA / "fixture_kg.tsv"),
            "questions": str(DATA / "fixture_questions.jsonl"),
            "work_dir": str(tmp_path / "out"),
        },
        "retrieval_level": "triple",
        "top_k": 8,
        "text_dim": 64,
        "chain_length_limit": 2,
        "training": {"epochs": 400, "hidden": [64, 64], "learning_rate": 0.2},
        "seed": 42,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def parameter_vector(model) -> np.ndarray:
    """A scorer's parameters flattened into one vector, in ``model.params`` order."""
    return np.concatenate([p.ravel() for p in model.params])


def set_parameter_vector(model, vec: np.ndarray) -> None:
    """Give each of a scorer's parameters a copy of its slice of ``vec``, as
    :func:`parameter_vector` lays them out."""
    offset = 0
    for i, p in enumerate(model.params):
        model.params[i] = vec[offset : offset + p.size].reshape(p.shape).copy()
        offset += p.size
