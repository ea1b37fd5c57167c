"""Pipeline configuration: one JSON file, per-flag overrides at the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TypeVar

T = TypeVar("T")


class ConfigError(Exception):
    """Invalid configuration; collects every violation before raising."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


_REQUIRED = object()


def json_field(
    obj: Any, key: str, convert: Callable[[Any], T] = lambda value: value, default: Any = _REQUIRED
) -> T:
    """``convert(obj[key])`` for a JSON object ``obj``, or ``default`` if given and ``key`` is absent.

    A missing required key raises ``KeyError(key)``, and a value ``convert`` rejects raises a
    ``TypeError`` naming the key; :func:`read_json` reports both as a :class:`ConfigError`.
    """
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {obj!r}")
    if key not in obj:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError):
        raise TypeError(f"{key} has the wrong type: {obj[key]!r}") from None


def str_tuple(values: Any) -> tuple[str, ...]:
    if not isinstance(values, list):
        raise TypeError("not a JSON list")
    return tuple(str(v) for v in values)


def read_json(
    path: str | Path, role: str, parse: Callable[[Any], T] = lambda raw: raw, kind: type = dict
) -> T:
    """``parse`` of the JSON document at ``path``, an input named by the config key ``role``.

    A file that cannot be read, that is not JSON or whose top level is not a ``kind``
    (dict or list), and a document ``parse`` rejects (``KeyError``, ``TypeError``,
    ``ValueError``) raise :class:`ConfigError` naming the role, the path and the field.
    """
    where = f"{role} {path}"
    try:
        with Path(path).open(encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"{where} cannot be read: {exc.strerror}"]) from None
    except ValueError as exc:
        raise ConfigError([f"{where} is not valid JSON: {exc}"]) from None
    if not isinstance(raw, kind):
        shape = "an object" if kind is dict else "a list"
        raise ConfigError([f"{where} must hold {shape}, got {type(raw).__name__}"])
    try:
        return parse(raw)
    except KeyError as exc:
        raise ConfigError([f"{where}: missing field {exc}"]) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"{where}: {exc}"]) from None


@dataclass
class TrainingSettings:
    epochs: int = 80
    learning_rate: float = 0.05
    hidden: tuple[int, ...] = (256, 256)
    activation: str = "tanh"
    pos_weight_cap: float = 100.0
    gnn_hidden: int = 64
    gnn_depth: int = 3
    recall_k: int | None = None  # defaults to top_k


@dataclass
class LLMSettings:
    backend: str = "mock"
    temperature: float = 0.0
    seed: int = 42
    max_tokens: int = 1024
    max_inflight: int = 4
    include_explanations: bool = True


@dataclass
class PipelineConfig:
    kg_path: str = ""
    questions_path: str = ""
    work_dir: str = "out"
    replay_path: str | None = None
    refine_demos_path: str | None = None
    qa_demos_path: str | None = None
    aliases_path: str | None = None
    kg_format: str = "tsv"
    retrieval_level: str = "triple"
    top_k: int = 500
    entity_k_bonus: int = 200
    dde_depth: int = 3
    dde_slots: int = 3
    text_dim: int = 256
    chain_length_limit: int | None = 2  # None means unlimited expansion depth
    path_cap: int = 256
    pool_limit: int = 137
    seed: int = 42
    workers: int = 1
    validation_ids: tuple[str, ...] = ()
    training: TrainingSettings = field(default_factory=TrainingSettings)
    llm: LLMSettings = field(default_factory=LLMSettings)

    # -- derived artifact paths ---------------------------------------------

    def artifact(self, name: str) -> Path:
        return Path(self.work_dir) / name

    @property
    def graph_artifact(self) -> Path:
        return self.artifact("graph.tsv")

    @property
    def questions_artifact(self) -> Path:
        return self.artifact("questions.jsonl")

    @property
    def pool_artifact(self) -> Path:
        return self.artifact("pool.jsonl")

    @property
    def supervision_artifact(self) -> Path:
        return self.artifact("supervision.jsonl")

    @property
    def model_artifact(self) -> Path:
        return self.artifact("model.json")

    @property
    def retrieval_artifact(self) -> Path:
        return self.artifact("retrieval.jsonl")

    @property
    def chains_artifact(self) -> Path:
        return self.artifact("chains.jsonl")

    @property
    def answers_artifact(self) -> Path:
        return self.artifact("answers.jsonl")

    @property
    def report_artifact(self) -> Path:
        return self.artifact("report.json")

    @property
    def per_question_artifact(self) -> Path:
        return self.artifact("per_question.csv")

    def recall_k(self) -> int:
        return self.training.recall_k if self.training.recall_k is not None else self.top_k


def _validate(cfg: PipelineConfig) -> list[str]:
    problems = []
    if cfg.kg_format not in ("tsv", "jsonl"):
        problems.append(f"kg_format must be tsv or jsonl, got {cfg.kg_format!r}")
    if cfg.retrieval_level not in ("triple", "entity"):
        problems.append(f"retrieval_level must be triple or entity, got {cfg.retrieval_level!r}")
    for name, value, low in (
        ("top_k", cfg.top_k, 1),
        ("entity_k_bonus", cfg.entity_k_bonus, 0),
        ("dde_depth", cfg.dde_depth, 1),
        ("dde_slots", cfg.dde_slots, 1),
        ("text_dim", cfg.text_dim, 1),
        ("path_cap", cfg.path_cap, 1),
        ("pool_limit", cfg.pool_limit, 1),
        ("workers", cfg.workers, 1),
        ("training.epochs", cfg.training.epochs, 0),
        ("training.gnn_hidden", cfg.training.gnn_hidden, 1),
        ("training.gnn_depth", cfg.training.gnn_depth, 1),
        ("llm.max_inflight", cfg.llm.max_inflight, 1),
        ("llm.max_tokens", cfg.llm.max_tokens, 1),
    ):
        if value < low:
            problems.append(f"{name} must be >= {low}, got {value}")
    if cfg.chain_length_limit is not None and cfg.chain_length_limit < 1:
        problems.append("chain_length_limit must be >= 1 or null")
    if cfg.training.learning_rate <= 0:
        problems.append("training.learning_rate must be positive")
    if cfg.training.activation not in ("tanh", "relu"):
        problems.append(f"training.activation must be tanh or relu, got {cfg.training.activation!r}")
    if cfg.llm.backend not in ("mock", "replay", "remote"):
        problems.append(f"llm.backend must be mock, replay, or remote, got {cfg.llm.backend!r}")
    if cfg.llm.temperature < 0:
        problems.append("llm.temperature must be >= 0")
    if not cfg.kg_path:
        problems.append("paths.kg is required")
    if not cfg.questions_path:
        problems.append("paths.questions is required")
    return problems


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a config file, reporting every violation at once."""
    raw = read_json(path, "config")
    problems: list[str] = []
    sections = {"": raw}
    for name in ("paths", "training", "llm"):
        sections[name] = raw.get(name, {})
        if not isinstance(sections[name], dict):
            problems.append(f"{name} must be a JSON object, got {sections[name]!r}")
            sections[name] = {}

    def get(key: str, convert, default):
        section, _, name = key.rpartition(".")
        value = sections[section].get(name, default)
        try:
            return convert(value)
        except (TypeError, ValueError):
            problems.append(f"{key} has the wrong type: {value!r}")
            return convert(default)

    cfg = PipelineConfig(
        kg_path=get("paths.kg", str, ""),
        questions_path=get("paths.questions", str, ""),
        work_dir=get("paths.work_dir", str, "out"),
        replay_path=get("paths.replay", _optional(str), None),
        refine_demos_path=get("paths.refine_demos", _optional(str), None),
        qa_demos_path=get("paths.qa_demos", _optional(str), None),
        aliases_path=get("paths.aliases", _optional(str), None),
        kg_format=get("kg_format", str, "tsv"),
        retrieval_level=get("retrieval_level", str, "triple"),
        top_k=get("top_k", int, 500),
        entity_k_bonus=get("entity_k_bonus", int, 200),
        dde_depth=get("dde_depth", int, 3),
        dde_slots=get("dde_slots", int, 3),
        text_dim=get("text_dim", int, 256),
        chain_length_limit=get("chain_length_limit", _optional(int), 2),
        path_cap=get("path_cap", int, 256),
        pool_limit=get("pool_limit", int, 137),
        seed=get("seed", int, 42),
        workers=get("workers", int, 1),
        validation_ids=get("validation_ids", lambda ids: tuple(str(i) for i in ids), ()),
        training=TrainingSettings(
            epochs=get("training.epochs", int, 80),
            learning_rate=get("training.learning_rate", float, 0.05),
            hidden=get("training.hidden", lambda sizes: tuple(int(h) for h in sizes), (256, 256)),
            activation=get("training.activation", str, "tanh"),
            pos_weight_cap=get("training.pos_weight_cap", float, 100.0),
            gnn_hidden=get("training.gnn_hidden", int, 64),
            gnn_depth=get("training.gnn_depth", int, 3),
            recall_k=get("training.recall_k", _optional(int), None),
        ),
        llm=LLMSettings(
            backend=get("llm.backend", str, "mock"),
            temperature=get("llm.temperature", float, 0.0),
            seed=get("llm.seed", int, 42),
            max_tokens=get("llm.max_tokens", int, 1024),
            max_inflight=get("llm.max_inflight", int, 4),
            include_explanations=get("llm.include_explanations", _boolean, True),
        ),
    )
    problems += _validate(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg
