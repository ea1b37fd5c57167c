"""Synthetic separable corpora for scorer training tests."""

from __future__ import annotations

import io

import numpy as np

from kgrag.kg import Question, load_kg
from kgrag.retriever import TrainSample

SIGNAL_RELATION = "signal link"
DECOY_RELATION = "decoy link"
JUNK_RELATIONS = [f"junk relation {i}" for i in range(20)]


def separable_sample(
    index: int,
    rng: np.random.Generator,
    n_triples: int = 100,
    n_pos: int = 5,
    n_decoys: int = 0,
) -> tuple[TrainSample, set[int]]:
    """One question whose positives share a marker relation.

    Positives are (subject, "signal link", value) triples; the rest are junk.
    With ``n_decoys`` > 0, that many "decoy link" triples are added to the
    graph; the returned extra set holds their triple ids (the corrupted
    supervision is positives plus decoys).
    """
    rows = []
    for j in range(n_pos):
        rows.append(f"item {index} {j}\t{SIGNAL_RELATION}\tvalue {index} {j}")
    for j in range(n_decoys):
        rows.append(f"side {index} {j}\t{DECOY_RELATION}\tmark {index} {j}")
    n_junk = n_triples - n_pos - n_decoys
    for j in range(n_junk):
        rel = JUNK_RELATIONS[int(rng.integers(0, len(JUNK_RELATIONS)))]
        rows.append(f"thing {index} {rng.integers(0, 40)}\t{rel}\tother {index} {rng.integers(0, 40)}")
    g = load_kg(io.StringIO("\n".join(rows)), "tsv")
    question = Question(
        id=f"syn{index}",
        text="which items carry the signal link marker",
        query_entities=frozenset({g.entity_ids[f"item {index} 0"]}),
        answer_entities=frozenset(),
    )
    positives = set(range(n_pos))
    decoys = set(range(n_pos, n_pos + n_decoys))
    return TrainSample(question, g, positives), decoys


def separable_corpus(
    n_questions: int = 50,
    n_triples: int = 100,
    n_pos: int = 5,
    n_decoys: int = 0,
    seed: int = 0,
) -> list[tuple[TrainSample, set[int]]]:
    rng = np.random.default_rng(seed)
    return [
        separable_sample(i, rng, n_triples, n_pos, n_decoys) for i in range(n_questions)
    ]


def star_graph_entity_sample() -> TrainSample:
    """Star graph: hub plus leaves; positives are the hub and one leaf."""
    rows = [f"hub\tspoke relation\tleaf {i}" for i in range(6)]
    rows.append("hub\tmarked relation\tleaf special")
    g = load_kg(io.StringIO("\n".join(rows)), "tsv")
    question = Question(
        id="star",
        text="which nodes carry the marked relation",
        query_entities=frozenset({g.entity_ids["hub"]}),
        answer_entities=frozenset(),
    )
    positives = {6}  # hub -> leaf special
    return TrainSample(question, g, positives)
