"""Trainable triple- and entity-level scorers plus top-K subgraph selection."""

from .features import (
    HashedBowEncoder,
    TextEncoder,
    TripleFeatureBuilder,
    anchor_slots,
    compute_dde,
    encode_text,
)
from .subgraph import RetrievedSubgraph, RetrievedTriple, load_model, save_model, top_k
from .triple_scorer import (
    TrainConfig,
    TrainSample,
    TripleScorer,
    score_triples,
    train_triple_scorer,
)
from .entity_scorer import (
    EntityScorer,
    entity_positives,
    entity_to_triple_scores,
    score_entities,
    train_entity_scorer,
)

__all__ = [
    "HashedBowEncoder",
    "TextEncoder",
    "TripleFeatureBuilder",
    "anchor_slots",
    "compute_dde",
    "encode_text",
    "RetrievedSubgraph",
    "RetrievedTriple",
    "load_model",
    "save_model",
    "top_k",
    "TrainConfig",
    "TrainSample",
    "TripleScorer",
    "score_triples",
    "train_triple_scorer",
    "EntityScorer",
    "entity_positives",
    "entity_to_triple_scores",
    "score_entities",
    "train_entity_scorer",
]
