"""Trainable triple- and entity-level scorers plus top-K subgraph selection."""

from .features import HashedBowEncoder, TripleFeatureBuilder, ViewTables, anchor_slots, compute_dde
from .subgraph import RetrievedTriple, top_k
from .triple_scorer import ModelFormatError, Scorer, TrainSample, TripleScorer, fit, load_model, save_model
from .entity_scorer import EntityScorer, entity_positives, entity_to_triple_scores

SCORERS: dict[str, type[Scorer]] = {cls.kind: cls for cls in (TripleScorer, EntityScorer)}
"""The scorer class of each retrieval level, the ``kind`` its model file records."""

__all__ = [
    "HashedBowEncoder",
    "TripleFeatureBuilder",
    "ViewTables",
    "anchor_slots",
    "compute_dde",
    "RetrievedTriple",
    "top_k",
    "SCORERS",
    "ModelFormatError",
    "Scorer",
    "TrainSample",
    "TripleScorer",
    "fit",
    "load_model",
    "save_model",
    "EntityScorer",
    "entity_positives",
    "entity_to_triple_scores",
]
