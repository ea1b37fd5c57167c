"""Binary triple classifier plus the training core and the model file both scorers share.

The triple scorer is a feedforward net over text + structural features.
Training (:func:`fit`, used by both scorers) maximizes per-question binary
cross-entropy with every non-positive triple or entity of the working graph
as a negative, class-weighted per question. Plain fixed-step gradient
descent, fixed iteration order: training twice with the same seed gives
bitwise-identical weights. :func:`save_model` and :func:`load_model` are the one
writer and reader of ``model.json``.
"""

from __future__ import annotations

import base64
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Literal, NamedTuple, Sequence

import numpy as np

from ..config import PipelineConfig, json_field
from ..kg import KGFormatError, KnowledgeGraph, Question, published, read_jsonl, write_jsonl
from .features import HashedBowEncoder, QuestionFeatures, TripleFeatureBuilder, dde_width

logger = logging.getLogger(__name__)


class TrainSample(NamedTuple):
    question: Question
    graph: KnowledgeGraph  # the question's working graph
    positives: set[int]  # triple ids


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(a: np.ndarray, z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return 1.0 - a * a
    return (z > 0).astype(z.dtype)


def weighted_bce_from_logits(
    z: np.ndarray, y: np.ndarray, pos_weight: float
) -> tuple[float, np.ndarray]:
    """Class-weighted binary cross entropy and its gradient wrt the logits.

    Uses logaddexp for stability; the loss is normalized by the total weight
    so the step size does not scale with graph size.
    """
    w = np.where(y > 0.5, pos_weight, 1.0)
    total = float(w.sum())
    log_p = -np.logaddexp(0.0, -z)
    log_1p = -np.logaddexp(0.0, z)
    loss = float(-(w * (y * log_p + (1.0 - y) * log_1p)).sum() / total)
    sigma = 1.0 / (1.0 + np.exp(-z))
    dz = w * (sigma - y) / total
    return loss, dz


class Scorer:
    """What both scorers share: metadata, the text encoder, parameters and their model file.

    A subclass names its parameters once, in ``layout()`` (name and shape, in ``params``
    order), and the architecture arguments training chose in ``ARCH`` (argument -> JSON
    type); parameter initialisation, names, ``arch()`` and :meth:`from_payload` follow from
    them. The widths of the inputs it builds follow from the encoder, ``dde_depth`` and
    ``dde_slots``, and ``config_arch(cfg)`` gives its ``ARCH`` arguments. ``inputs(g, q)``
    builds a question's inputs and the id of each score, and ``positive_ids(g, positives)``
    the ids a sample's positive triples make positive; ``loss_and_grad`` and ``scores`` run
    on those inputs.
    """

    kind: str
    ARCH: dict[str, Any]
    params: list[np.ndarray]

    def __init__(self, encoder_tag: str, dde_depth: int, dde_slots: int, rng: np.random.Generator | None):
        self.encoder_tag = encoder_tag
        self.encoder = HashedBowEncoder.from_tag(encoder_tag)
        self.dde_depth = dde_depth
        self.dde_slots = dde_slots
        self.epoch_losses: list[float] = []
        if rng is not None:
            self.init_params(rng)

    def init_params(self, rng: np.random.Generator) -> None:
        """Matrices drawn in layout order with std ``sqrt(1/fan_in)``, biases zero; the output
        weights start near zero so that untrained scores sit near 0.5."""
        self.params = [
            rng.normal(0.0, 0.01 if name == "w_out" else np.sqrt(1.0 / shape[0]), shape)
            if len(shape) == 2
            else np.zeros(shape)
            for name, shape in self.layout()
        ]

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return [(name, p) for (name, _), p in zip(self.layout(), self.params)]

    def arch(self) -> dict:
        return {name: getattr(self, name) for name in self.ARCH}

    @classmethod
    def from_payload(cls, payload: dict) -> "Scorer":
        """The model in a ``model.json`` object; weights whose names or shapes differ from the
        layout its ``arch``, encoder tag, ``dde_depth`` and ``dde_slots`` give raise
        :class:`KGFormatError` before any is decoded, and a decoded weight that holds NaN or
        an infinity raises it after."""
        arch = json_field(payload, "arch", dict)
        dde_depth, dde_slots = json_field(payload, "dde_depth", int), json_field(payload, "dde_slots", int)
        if dde_depth < 1 or dde_slots < 1:
            raise KGFormatError(f"dde_depth {dde_depth} and dde_slots {dde_slots} must be >= 1")
        model = cls(
            **{name: json_field(arch, name, tp) for name, tp in cls.ARCH.items()},
            dde_depth=dde_depth,
            dde_slots=dde_slots,
            # read last, so that the error of an unknown encoder names this field
            encoder_tag=json_field(payload, "encoder_tag", str),
        )
        weights, layout = json_field(payload, "weights", dict), dict(model.layout())
        shapes = {
            name: json_field(json_field(weights, name, dict), "shape", tuple[int, ...]) for name in weights
        }
        for name in sorted(shapes.keys() | layout.keys()):
            if shapes.get(name) != layout.get(name):
                raise KGFormatError(
                    f"weight {name!r} has shape {shapes.get(name, 'none')} in the file"
                    f" and {layout.get(name, 'none')} in the {cls.kind} scorer's layout"
                )
        model.params = [
            np.frombuffer(base64.b64decode(json_field(weights[name], "data", str), validate=True), "<f8")
            .reshape(shape)
            .copy()
            for name, shape in layout.items()
        ]
        for name, w in zip(layout, model.params):
            if not np.isfinite(w).all():
                raise KGFormatError(f"weight {name!r} holds NaN or an infinity")
        return model

    def score(self, q: Question, g: KnowledgeGraph) -> list[tuple[int, float]]:
        """One score per id that :meth:`inputs` gives for ``q`` over its working graph ``g``."""
        inputs, ids = self.inputs(g, q)
        if not ids:
            return []
        return list(zip(ids, self.scores(inputs).tolist()))


class TripleScorer(Scorer):
    """MLP over a triple's input row (see :class:`QuestionFeatures`) with a sigmoid head."""

    kind = "triple"
    ARCH = {"hidden": tuple[int, ...], "activation": Literal["tanh", "relu"]}

    def __init__(
        self,
        hidden: Sequence[int],
        activation: str,
        encoder_tag: str,
        dde_depth: int,
        dde_slots: int,
        rng: np.random.Generator | None = None,
    ):
        self.hidden = tuple(hidden)
        self.activation = activation
        super().__init__(encoder_tag, dde_depth, dde_slots, rng)

    @property
    def input_dim(self) -> int:
        """:attr:`QuestionFeatures.triple_dim`: four texts and two DDE codes per slot."""
        return 4 * self.encoder.dim + 2 * self.dde_slots * dde_width(self.dde_depth)

    @staticmethod
    def config_arch(cfg: PipelineConfig) -> dict:
        return {"hidden": cfg.training.hidden, "activation": cfg.training.activation}

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        widths = (self.input_dim, *self.hidden)
        out = []
        for i, (fan_in, width) in enumerate(zip(widths, self.hidden)):
            out += [(f"W{i}", (fan_in, width)), (f"b{i}", (width,))]
        return out + [("w_out", (widths[-1], 1)), ("b_out", (1,))]

    # -- forward / backward --------------------------------------------------
    # The first layer is linear in [query | head | relation | tail | DDE], so it
    # splits by block over the bundle's tables (see QuestionFeatures).

    @staticmethod
    def _blocks(W: np.ndarray, f: QuestionFeatures) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``W``'s text blocks (query, head, relation, tail) and per-slot
        DDE blocks (head, tail)."""
        T = len(f.query)
        return W[: 4 * T].reshape(4, T, -1), W[4 * T :].reshape(f.dde.shape[1], 2, -1, W.shape[1])

    def _first_layer(self, f: QuestionFeatures, codes: np.ndarray) -> np.ndarray:
        """The first layer's pre-activations, ``codes`` the bundle's expanded DDE codes."""
        if f.triple_dim != self.input_dim:
            raise ValueError(
                f"feature dimension mismatch: got {f.triple_dim}, model expects {self.input_dim}"
            )
        text, dde = self._blocks(self.params[0], f)
        v = f.view
        head = v.entity_text @ text[1] + codes @ dde[:, 0].reshape(codes.shape[1], -1)
        tail = v.entity_text @ text[3] + codes @ dde[:, 1].reshape(codes.shape[1], -1)
        relation = v.relation_text @ text[2]
        return head[v.head] + relation[v.relation] + tail[v.tail] + (f.query @ text[0] + self.params[1])

    def _first_layer_grad(
        self, f: QuestionFeatures, codes: np.ndarray, dz: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        grad_W = np.zeros(self.params[0].shape)  # C order, so the blocks below are views
        text, dde = self._blocks(grad_W, f)
        v = f.view
        text[0] = np.outer(f.query, dz.sum(axis=0))
        text[1] = v.entity_text[v.head].T @ dz
        text[2] = v.relation_text[v.relation].T @ dz
        text[3] = v.entity_text[v.tail].T @ dz
        dde[:, 0] = (codes[v.head].T @ dz).reshape(dde[:, 0].shape)
        dde[:, 1] = (codes[v.tail].T @ dz).reshape(dde[:, 1].shape)
        return grad_W, dz.sum(axis=0)

    def _forward(self, f: QuestionFeatures, codes: np.ndarray) -> tuple[np.ndarray, list]:
        caches = []
        z = self._first_layer(f, codes)
        for i in range(len(self.hidden)):
            a = _activate(z, self.activation)
            caches.append((z, a))
            z = a @ self.params[2 * i + 2] + self.params[2 * i + 3]
        return z.ravel(), caches

    def logits(self, f: QuestionFeatures) -> np.ndarray:
        return self._forward(f, f.codes())[0]

    def scores(self, f: QuestionFeatures) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.logits(f)))

    def loss_and_grad(
        self, f: QuestionFeatures, y: np.ndarray, pos_weight: float
    ) -> tuple[float, list[np.ndarray]]:
        codes = f.codes()
        logits, caches = self._forward(f, codes)
        loss, dz = weighted_bce_from_logits(logits, y, pos_weight)
        grads: list[np.ndarray] = [np.empty(0)] * len(self.params)
        grad = dz[:, None]
        for i in reversed(range(len(self.hidden))):
            z, a = caches[i]
            grads[2 * i + 2] = a.T @ grad
            grads[2 * i + 3] = grad.sum(axis=0)
            grad = (grad @ self.params[2 * i + 2].T) * _activate_grad(a, z, self.activation)
        grads[0], grads[1] = self._first_layer_grad(f, codes, grad)
        return loss, grads

    # -- inputs ---------------------------------------------------------------

    def inputs(self, g: KnowledgeGraph, q: Question) -> tuple[QuestionFeatures, list[int]]:
        """The feature bundle and the visible triple ids it scores, in triple-id order."""
        tids, f = TripleFeatureBuilder(g, q, self.encoder, self.dde_depth, self.dde_slots).matrix()
        return f, tids

    @staticmethod
    def positive_ids(g: KnowledgeGraph, positives: set[int]) -> set[int]:
        return positives.intersection(g.triple_ids)


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> None:
    for p, g in zip(params, grads):
        p -= lr * g


@dataclass
class _Prepared:
    inputs: Any  # what the scorer's loss_and_grad and scores take
    ids: list[int]  # the triple or entity id of each score
    y: np.ndarray
    pos_weight: float
    positives: set[int]


def _prepare(model: Scorer, sample: TrainSample, pos_weight_cap: float) -> _Prepared:
    question, graph, positive_tids = sample
    inputs, ids = model.inputs(graph, question)
    positives = model.positive_ids(graph, positive_tids)
    y = np.array([1.0 if i in positives else 0.0 for i in ids])
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError(f"question {question.id}: no positive {model.kind} ids in working graph")
    pos_weight = float(min(pos_weight_cap, max(1.0, (len(ids) - n_pos) / n_pos)))
    return _Prepared(inputs, ids, y, pos_weight, positives)


def recall_at_k(scored: Sequence[tuple[int, float]], positives: set[int], k: int) -> float:
    if not positives:
        return 0.0
    ranked = sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]
    hit = sum(1 for tid, _ in ranked if tid in positives)
    return hit / len(positives)


def _validation_recall(model: Scorer, prepared: Sequence[_Prepared], k: int) -> float:
    total = 0.0
    for sample in prepared:
        scores = model.scores(sample.inputs)
        total += recall_at_k(list(zip(sample.ids, scores)), sample.positives, k)
    return total / len(prepared)


def fit(
    scorer: type[Scorer],
    samples: Sequence[TrainSample],
    cfg: PipelineConfig,
    val_samples: Sequence[TrainSample] | None = None,
) -> Scorer:
    """Train a ``scorer`` class with ``cfg.training``; returns the best-validation or final model.

    The model's widths and text encoder follow from ``cfg.text_dim``, ``dde_depth`` and
    ``dde_slots``. With a validation split, the checkpoint with the highest validation
    recall@k (``training.recall_k``, or ``top_k`` when that is None) is returned, the
    earliest epoch on ties; otherwise the final epoch.
    """
    if not samples:
        raise ValueError("no training samples")
    training = cfg.training
    model = scorer(
        **scorer.config_arch(cfg),
        encoder_tag=HashedBowEncoder(cfg.text_dim).tag,
        dde_depth=cfg.dde_depth,
        dde_slots=cfg.dde_slots,
        rng=np.random.default_rng(cfg.seed),
    )
    prepared = [_prepare(model, s, training.pos_weight_cap) for s in samples]
    val_prepared = [_prepare(model, s, training.pos_weight_cap) for s in val_samples or ()]
    recall_k = cfg.top_k if training.recall_k is None else training.recall_k

    best_recall = -1.0
    best_params: list[np.ndarray] | None = None
    for epoch in range(training.epochs):
        losses = []
        for sample in prepared:
            loss, grads = model.loss_and_grad(sample.inputs, sample.y, sample.pos_weight)
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite loss at epoch {epoch}")
            sgd_step(model.params, grads, training.learning_rate)
            losses.append(loss)
        model.epoch_losses.append(float(np.mean(losses)))
        if val_prepared:
            recall = _validation_recall(model, val_prepared, recall_k)
            if recall > best_recall:
                best_recall = recall
                best_params = [p.copy() for p in model.params]
    if best_params is not None:
        model.params = best_params
        logger.info("selected checkpoint with validation recall %.4f", best_recall)
    return model


# -- model files ---------------------------------------------------------------

MODEL_FORMAT_VERSION = 3


class ModelFormatError(Exception):
    """A well-formed model of another format version, kind, encoder or DDE setting."""


def save_model(model: Scorer, path: str | Path) -> None:
    """One JSON object on one line: the format version, what training chose (kind, encoder tag,
    ``dde_depth``, ``dde_slots`` and ``arch``) and the weights.

    A weight is ``{"shape", "data"}``, data the base64 of its little-endian
    float64 bytes, so loading gives back every bit (``-0.0`` and subnormals too).
    """
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "encoder_tag": model.encoder_tag,
        "dde_depth": model.dde_depth,
        "dde_slots": model.dde_slots,
        "arch": model.arch(),
        "weights": {
            name: {"shape": list(w.shape), "data": base64.b64encode(w.astype("<f8").tobytes()).decode()}
            for name, w in model.named_params()
        },
    }
    with published(path) as fh:
        write_jsonl(fh, [payload])


def load_model(path: str | Path, scorer: type[Scorer], encoder_tag: str) -> Scorer:
    """The ``scorer`` model :func:`save_model` wrote to ``path``.

    A file that is not one such object, a record missing a field or holding one of
    the wrong type, and weights that do not match the architecture raise
    :class:`KGFormatError`; a model of another format version, or of a kind or encoder
    tag other than ``scorer``'s and ``encoder_tag``, raises :class:`ModelFormatError`.
    """

    def parse(payload: dict) -> Scorer:
        version = json_field(payload, "format_version", int)
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format {version}")
        tag = json_field(payload, "encoder_tag", str)
        if tag != encoder_tag:
            raise ModelFormatError(f"encoder tag mismatch: model has {tag!r}, expected {encoder_tag!r}")
        kind = json_field(payload, "kind", str)
        if kind != scorer.kind:
            raise ModelFormatError(f"model kind mismatch: model has {kind!r}, expected {scorer.kind!r}")
        return scorer.from_payload(payload)

    with Path(path).open("rb") as fh:
        models = read_jsonl(fh, parse)
    if len(models) != 1:
        raise KGFormatError(f"expected one model record, found {len(models)}")
    return models[0]
