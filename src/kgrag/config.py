"""Pipeline configuration: one JSON file, per-flag overrides at the CLI.

The dataclasses below are the file's only schema, and :func:`load_config` walks them.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Literal, TypeVar, get_args, get_origin, get_type_hints

T = TypeVar("T")


class ConfigError(Exception):
    """Invalid configuration; collects every violation before raising."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


_REQUIRED = object()


def json_field(obj: Any, key: str, tp: Any, default: Any = _REQUIRED) -> Any:
    """``obj[key]`` if it holds the JSON type ``tp``, or ``default`` if given and ``key`` is absent.

    ``tp`` is ``bool``, ``int``, ``float`` (an integer read as a float), ``str``, ``dict`` or
    ``list`` (whose items the caller checks), ``tuple[X, ...]`` or ``tuple[X, Y, Z]`` (a JSON
    list), ``X | None`` or ``Literal[...]``. A missing required key raises ``KeyError(key)``;
    a wrong type (``TypeError``) or choice (``ValueError``, or a non-finite float) names the key.
    """
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {reprlib.repr(obj)}")
    if key not in obj:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    try:
        return _as(obj[key], tp)
    except ValueError as exc:
        raise ValueError(f"{key} must be {exc}, got {reprlib.repr(obj[key])}") from None
    except TypeError:
        raise TypeError(f"{key} has the wrong type: {reprlib.repr(obj[key])}") from None


_parts = functools.cache(lambda tp: (get_origin(tp), get_args(tp)))


def _as(value: Any, tp: Any) -> Any:
    origin, args = _parts(tp)
    if origin is tuple:
        # one pass over the item types settles the common case, items of the plain types asked for
        if type(value) is list:
            if args[-1] is not Ellipsis:  # tuple[X, Y, Z]
                if float not in args and tuple(map(type, value)) == args:
                    return tuple(value)
                if len(value) == len(args):
                    return tuple(_as(item, item_tp) for item, item_tp in zip(value, args))
            elif set(map(type, value)) <= {args[0]} and (args[0] is not float or all(map(math.isfinite, value))):
                return tuple(value)
            else:  # each item as the scalar reader reads it, which names a non-finite float
                return tuple(_as(item, args[0]) for item in value)
    elif origin is Literal:
        if value in args:
            return value
        raise ValueError(" or ".join(map(repr, args)))
    elif origin is not None:  # X | None
        (inner,) = set(args) - {type(None)}
        return None if value is None else _as(value, inner)
    elif tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if -sys.float_info.max <= value <= sys.float_info.max:  # not NaN, ±Infinity or a huge integer
                return float(value)
            raise ValueError("a finite number")
    elif isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
        return value
    raise TypeError(tp)


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


def _at_least(low: float, default: Any) -> Any:
    """A field whose value, when not ``None``, must be ``>= low``."""
    return field(default=default, metadata={"min": low})


@dataclass
class PathSettings:
    kg: str = ""  # required
    questions: str = ""  # required
    work_dir: str = "out"
    replay: str | None = None
    refine_demos: str | None = None
    qa_demos: str | None = None
    aliases: str | None = None


@dataclass
class TrainingSettings:
    epochs: int = _at_least(0, 80)
    learning_rate: float = 0.05  # must be positive
    hidden: tuple[int, ...] = (256, 256)
    activation: Literal["tanh", "relu"] = "tanh"
    pos_weight_cap: float = 100.0
    gnn_hidden: int = _at_least(1, 64)
    gnn_depth: int = _at_least(1, 3)
    recall_k: int | None = None  # defaults to top_k


@dataclass
class LLMSettings:
    backend: Literal["mock", "replay", "remote"] = "mock"
    temperature: float = _at_least(0, 0.0)
    seed: int = 42
    max_tokens: int = _at_least(1, 1024)
    max_inflight: int = _at_least(1, 4)
    include_explanations: bool = True


@dataclass
class PipelineConfig:
    """The config file's schema: each field's name is its key, its annotation the JSON type
    its value must hold (a dataclass is a nested object), its default the value used when the
    key is absent, and ``metadata["min"]`` its lower bound. Any other key is an error.
    """

    paths: PathSettings = field(default_factory=PathSettings)
    kg_format: Literal["tsv", "jsonl"] = "tsv"
    retrieval_level: Literal["triple", "entity"] = "triple"
    top_k: int = _at_least(1, 500)
    entity_k_bonus: int = _at_least(0, 200)
    dde_depth: int = _at_least(1, 3)
    dde_slots: int = _at_least(1, 3)
    text_dim: int = _at_least(1, 256)
    chain_length_limit: int | None = _at_least(1, 2)  # None means unlimited expansion depth
    path_cap: int = _at_least(1, 256)
    pool_limit: int = _at_least(1, 137)
    seed: int = _at_least(0, 42)
    workers: int = _at_least(1, 1)
    validation_ids: tuple[str, ...] = ()
    training: TrainingSettings = field(default_factory=TrainingSettings)
    llm: LLMSettings = field(default_factory=LLMSettings)

    def artifact(self, name: str) -> Path:
        """The work-directory file ``name``."""
        return Path(self.paths.work_dir) / name


_type_hints = functools.cache(get_type_hints)  # one evaluation per schema class


def _load(cls: type[T], raw: dict, prefix: str, problems: list[str]) -> T:
    """``cls`` from the JSON object ``raw``; a bad value is added to ``problems`` and its default kept."""
    hints = _type_hints(cls)
    problems += [f"{prefix}{key} is not a setting" for key in raw if key not in hints]
    values = {}
    for f in fields(cls):
        tp = hints[f.name]
        section = is_dataclass(tp)
        default = {} if section else f.default
        try:
            value = json_field(raw, f.name, dict if section else tp, default)
        except (TypeError, ValueError) as exc:
            problems.append(f"{prefix}{exc}")
            value = default
        low = f.metadata.get("min")
        if section:
            value = _load(tp, value, f"{prefix}{f.name}.", problems)
        elif low is not None and value is not None and value < low:
            problems.append(f"{prefix}{f.name} must be >= {low}, got {value}")
        values[f.name] = value
    return cls(**values)


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a config file, reporting every violation at once."""
    problems: list[str] = []
    cfg = _load(PipelineConfig, read_json(path, "config"), "", problems)
    if cfg.training.learning_rate <= 0:
        problems.append("training.learning_rate must be positive")
    if not cfg.paths.kg:
        problems.append("paths.kg is required")
    if not cfg.paths.questions:
        problems.append("paths.questions is required")
    if problems:
        raise ConfigError(problems)
    return cfg
