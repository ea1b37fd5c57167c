"""The config schema: every setting typed, bounded and defaulted in one place.

The leaf walk below covers each setting of ``kgrag.config``'s dataclasses, so a
setting added there is tested here without another line.
"""

import ast
import json
import math
import re
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import Literal, Union, get_args, get_origin, get_type_hints

import pytest

from kgrag.cli import EXIT_CONFIG, main
from kgrag.config import LLMSettings, PathSettings, PipelineConfig, TrainingSettings, json_field, load_config

from conftest import DATA, write_fixture_config

REPO_ROOT = Path(__file__).resolve().parent.parent


def _leaves(cls=PipelineConfig, prefix=""):
    """(dotted key, annotation) of every setting, sections walked."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _leaves(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, hints[f.name]


LEAVES = dict(_leaves())

# one value of each JSON type
PROBES = {"string": "7", "integer": 7, "number": 7.5, "boolean": True, "list": [], "object": {}, "null": None}


def _accepted(tp) -> set[str]:
    """The JSON types a setting annotated ``tp`` holds."""
    origin = get_origin(tp)
    if origin is Literal:
        return set()  # no probe is one of the choices
    if origin in (Union, UnionType):  # X | None
        (inner,) = set(get_args(tp)) - {type(None)}
        return _accepted(inner) | {"null"}
    if origin is tuple:
        return {"list"}
    return {str: {"string"}, int: {"integer"}, float: {"integer", "number"}, bool: {"boolean"}}[tp]


def _override(key: str, value) -> dict:
    """``write_fixture_config`` overrides that set the dotted ``key`` to ``value``."""
    section, _, name = key.rpartition(".")
    return {section: {name: value}} if section else {key: value}


def _config_errors(tmp_path, capsys, **overrides) -> list[str]:
    rc = main(["ingest", "--config", str(write_fixture_config(tmp_path, **overrides))])
    assert rc == EXIT_CONFIG
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("config error: ")]


def _each_names(errors: list[str], key: str) -> bool:
    # a required path of the wrong type is also reported missing
    return bool(errors) and all(e.startswith(f"config error: {key} ") for e in errors)


@pytest.mark.parametrize("key", sorted(LEAVES))
def test_every_setting_rejects_every_other_json_type(tmp_path, capsys, key):
    wrong = [kind for kind in PROBES if kind not in _accepted(LEAVES[key])]
    assert wrong
    for kind in wrong:
        errors = _config_errors(tmp_path, capsys, **_override(key, PROBES[kind]))
        assert _each_names(errors, key), (kind, errors)


@pytest.mark.parametrize(
    "override, key",
    [
        ({"training": {"hidden": "64"}}, "training.hidden"),
        ({"validation_ids": "q12"}, "validation_ids"),
        ({"top_k": 5.7}, "top_k"),
        ({"top_k": True}, "top_k"),
        ({"top_k": "12"}, "top_k"),
        ({"seed": 1.9}, "seed"),
        ({"paths": {"kg": ["a"]}}, "paths.kg"),
        ({"training": {"hidden": [64, "64"]}}, "training.hidden"),
        ({"training": {"activation": "sigmoid"}}, "training.activation"),
        ({"llm": {"include_explanations": 1}}, "llm.include_explanations"),
        ({"trainig": {"epochs": 3}}, "trainig"),
        ({"training": {"epoch": 3}}, "training.epoch"),
        ({"llm": []}, "llm"),
    ],
    ids=[
        "hidden-string", "validation_ids-string", "top_k-float", "top_k-true", "top_k-string", "seed-float",
        "kg-list", "hidden-item-string", "activation-unknown", "include_explanations-1", "unknown-section",
        "unknown-section-key", "llm-list",
    ],
)
def test_misread_values_and_unknown_keys_exit_config(tmp_path, capsys, override, key):
    errors = _config_errors(tmp_path, capsys, **override)
    assert _each_names(errors, key), errors


@pytest.mark.parametrize(
    "override, shown",
    [
        ({"top_k": 0}, "top_k must be >= 1, got 0"),
        ({"chain_length_limit": 0}, "chain_length_limit must be >= 1, got 0"),
        ({"training": {"learning_rate": 0}}, "training.learning_rate must be positive"),
        ({"training": {"learning_rate": math.nan}}, "training.learning_rate must be a finite number, got nan"),
        ({"llm": {"temperature": -0.5}}, "llm.temperature must be >= 0, got -0.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"kg_format": "csv"}, "kg_format must be 'tsv' or 'jsonl', got 'csv'"),
    ],
    ids=[
        "top_k-0", "chain_length_limit-0", "learning_rate-0", "learning_rate-NaN", "temperature-negative",
        "seed-negative", "kg_format-csv",
    ],
)
def test_out_of_range_value_exits_config(tmp_path, capsys, override, shown):
    assert _config_errors(tmp_path, capsys, **override) == [f"config error: {shown}"]


@pytest.mark.parametrize("key", sorted(k for k, tp in LEAVES.items() if float in (tp, *get_args(tp))))
def test_every_float_setting_rejects_non_finite_numbers(tmp_path, capsys, key):
    for value, shown in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "1000")):
        errors = _config_errors(tmp_path, capsys, **_override(key, value))
        assert len(errors) == 1 and errors[0].startswith(f"config error: {key} must be a finite number, got {shown}")


def test_every_violation_is_reported_at_once(tmp_path, capsys):
    errors = _config_errors(
        tmp_path, capsys, top_k="12", trainig={}, training={"epoch": 3, "hidden": "64"}, paths={"kg": ""}
    )
    assert sorted(e.split()[2] for e in errors) == ["paths.kg", "top_k", "trainig", "training.epoch", "training.hidden"]


def test_readme_config_reference_is_the_schema_defaults():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config reference \(defaults\).*?```jsonc\n(.*?)```", readme, re.S).group(1)
    assert json.loads(re.sub(r"//.*", "", block)) == json.loads(json.dumps(asdict(PipelineConfig())))


def _fixture_config(tmp_path) -> PipelineConfig:
    return PipelineConfig(
        paths=PathSettings(
            kg=str(DATA / "fixture_kg.tsv"),
            questions=str(DATA / "fixture_questions.jsonl"),
            work_dir=str(tmp_path / "out"),
        ),
        top_k=8,
        text_dim=64,
        training=TrainingSettings(epochs=400, hidden=(64, 64), learning_rate=0.2),
    )


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({}, {}),
        ({"training": {"epochs": 2}}, {"training": TrainingSettings(epochs=2, hidden=(64, 64), learning_rate=0.2)}),
        (
            {
                "retrieval_level": "entity",
                "top_k": 4,
                "entity_k_bonus": 4,
                "training": {"epochs": 40, "hidden": [64, 64], "learning_rate": 0.2, "gnn_hidden": 16, "gnn_depth": 2},
            },
            {
                "retrieval_level": "entity",
                "top_k": 4,
                "entity_k_bonus": 4,
                "training": TrainingSettings(
                    epochs=40, hidden=(64, 64), learning_rate=0.2, gnn_hidden=16, gnn_depth=2
                ),
            },
        ),
        ({"kg_format": "jsonl"}, {"kg_format": "jsonl"}),
    ],
    ids=["fixture", "two-epochs", "entity-level", "jsonl"],
)
def test_fixture_configs_load_to_their_values(tmp_path, overrides, expected):
    cfg = load_config(write_fixture_config(tmp_path, **overrides))
    want = _fixture_config(tmp_path)
    for key, value in expected.items():
        setattr(want, key, value)
    assert cfg == want
    _assert_json_typed(cfg)


def _assert_json_typed(cfg: PipelineConfig):
    """Floats are floats and lists are tuples, so that equality above is exact."""
    for key, tp in LEAVES.items():
        value = cfg
        for name in key.split("."):
            value = getattr(value, name)
        if tp is float:
            assert type(value) is float, key
        if get_origin(tp) is tuple:
            assert type(value) is tuple, key


def test_readme_example_config_loads_to_its_values(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"cat > /tmp/config.json <<'EOF'\n(.*?)\nEOF", readme, re.S).group(1)
    path = tmp_path / "config.json"
    path.write_text(example)
    cfg = load_config(path)
    assert cfg == PipelineConfig(
        paths=PathSettings(
            kg="tests/data/fixture_kg.tsv", questions="tests/data/fixture_questions.jsonl", work_dir="/tmp/kgrag-out"
        ),
        top_k=8,
        text_dim=64,
        training=TrainingSettings(epochs=400, hidden=(64, 64), learning_rate=0.2),
    )
    _assert_json_typed(cfg)


def _perfbench_constant(name: str):
    tree = ast.parse((REPO_ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


@pytest.mark.parametrize("workload", ["scoped-triple", "shared-entity"])
def test_benchmark_config_loads_to_its_values(tmp_path, workload):
    level = _perfbench_constant("WORKLOADS")[workload]["level"]
    paths = {"kg": "corpus/kg.tsv", "questions": "corpus/questions.jsonl", "work_dir": "work"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_perfbench_constant("PIPELINE"), "paths": paths, "retrieval_level": level, "seed": 1}))
    cfg = load_config(path)
    assert cfg == PipelineConfig(
        paths=PathSettings(**paths),
        retrieval_level=level,
        top_k=100,
        entity_k_bonus=200,
        text_dim=64,
        seed=1,
        workers=1,
        training=TrainingSettings(epochs=5, hidden=(64, 64), learning_rate=0.1),
        llm=LLMSettings(backend="mock"),
    )
    _assert_json_typed(cfg)


@pytest.mark.parametrize(
    "value, tp, expected",
    [
        (["a", "r", "b"], tuple[str, str, str], ("a", "r", "b")),
        ([1, "x", 2.5], tuple[int, str, float], (1, "x", 2.5)),
        ([[1], "x"], list, [[1], "x"]),
        ([1, 2], tuple[float, ...], (1.0, 2.0)),
        ([["a", "r", "b"]], tuple[tuple[str, str, str], ...], (("a", "r", "b"),)),
        (None, int | None, None),
    ],
)
def test_json_field_reads_fixed_tuples_and_lists(value, tp, expected):
    got = json_field({"k": value}, "k", tp)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "value, tp",
    [
        ([1, True], tuple[int, ...]),
        ([1, 3.0], tuple[int, ...]),
        (["a", "r"], tuple[str, str, str]),
        (["a", "r", 5], tuple[str, str, str]),
        ("abc", tuple[str, ...]),
        ({"a": 1}, list),
        ([["a", "r", "b"], "abc"], tuple[tuple[str, str, str], ...]),
        ([0.5, "0.5"], tuple[float, ...]),
        ([0.5, True], tuple[float, ...]),
    ],
)
def test_json_field_rejects_items_of_another_type(value, tp):
    with pytest.raises(TypeError, match="k has the wrong type"):
        json_field({"k": value}, "k", tp)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -(10**400)])
def test_json_field_rejects_non_finite_floats(value):
    with pytest.raises(ValueError, match="k must be a finite number"):
        json_field({"k": value}, "k", float)


@pytest.mark.parametrize("tp", [tuple[float, ...], tuple[float, float]])
@pytest.mark.parametrize("value", [[math.nan, 0.5], [0.5, math.inf], [-math.inf, 1]])
def test_json_field_rejects_non_finite_floats_in_a_list(value, tp):
    with pytest.raises(ValueError, match="k must be a finite number"):
        json_field({"k": value}, "k", tp)
