"""Deterministic synthetic KGQA corpora for the benchmark.

Two shapes, both with one planted two-hop path ``query -r_a-> mid -r_b-> answer``
per question and a question text that names both relations:

* ``scoped``: every question owns a private block of entities and triples and
  lists that block as its ``scope``. The global graph is the union of all
  blocks, so the vocabulary is ``questions`` times larger than any scope.
* ``shared``: one graph; every question is unscoped and sees all of it.

The same (shape, parameters, seed) always gives the same bytes. Only numpy's
``default_rng`` and the standard library are used.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _words(rng: np.random.Generator, count: int, syllables: int) -> list[str]:
    """``count`` distinct pronounceable lowercase words."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _relations(rng: np.random.Generator, count: int) -> list[str]:
    return [f"{a} {b}" for a, b in zip(_words(rng, count, 3), _words(rng, count, 2))]


def _question_text(query: str, ra: str, rb: str) -> str:
    return f"what is the {rb} of the {ra} of {query}?"


def _random_block(
    rng: np.random.Generator,
    n_entities: int,
    n_triples: int,
    n_relations: int,
    planted: list[tuple[int, int, int]],
    forbidden_pairs: set[frozenset[int]],
) -> list[tuple[int, int, int]]:
    """``n_triples`` distinct (h, r, t) over local ids; planted ones at random positions.

    Random triples never start at the head of a planted triple, so a planted
    query and mid each have the planted step as their only out-edge; pairs in
    ``forbidden_pairs`` never get an edge, which keeps each planted query at
    distance two from its answer.
    """
    triples = set(planted)
    planted_heads = {h for h, _, _ in planted}
    while len(triples) < n_triples:
        h, t = (int(x) for x in rng.integers(n_entities, size=2))
        if h == t or h in planted_heads or frozenset((h, t)) in forbidden_pairs:
            continue
        triples.add((h, int(rng.integers(n_relations)), t))
    rest = sorted(triples - set(planted))
    order = rng.permutation(len(rest))
    out = [rest[i] for i in order]
    for tr in planted:
        out.insert(int(rng.integers(len(out) + 1)), tr)
    return out


def generate_scoped(
    seed: int, questions: int, scope_entities: int, scope_triples: int, relations: int
) -> tuple[list[tuple[str, str, str]], list[dict]]:
    rng = np.random.default_rng([seed, 1])
    rel = _relations(rng, relations)
    words = _words(rng, 400, 2)
    triples: list[tuple[str, str, str]] = []
    records = []
    for i in range(questions):
        labels = [f"{words[rng.integers(len(words))]} q{i} n{j}" for j in range(scope_entities)]
        ra, rb = (int(x) for x in rng.choice(relations, size=2, replace=False))
        # local ids 0, 1, 2 are query, mid and answer
        block = _random_block(
            rng, scope_entities, scope_triples, relations,
            planted=[(0, ra, 1), (1, rb, 2)], forbidden_pairs={frozenset((0, 2))},
        )
        scope = [(labels[h], rel[r], labels[t]) for h, r, t in block]
        triples += scope
        records.append(
            {
                "id": f"q{i:04d}",
                "question": _question_text(labels[0], rel[ra], rel[rb]),
                "question_entities": [labels[0]],
                "answer_entities": [labels[2]],
                "scope": [list(tr) for tr in scope],
            }
        )
    return triples, records


def generate_shared(
    seed: int, questions: int, entities: int, triples: int, relations: int
) -> tuple[list[tuple[str, str, str]], list[dict]]:
    if 3 * questions > entities:
        raise ValueError("need at least three entities per question")
    rng = np.random.default_rng([seed, 2])
    rel = _relations(rng, relations)
    words = _words(rng, 400, 2)
    labels = [f"{words[rng.integers(len(words))]} e{j}" for j in range(entities)]
    roles = rng.permutation(entities)[: 3 * questions].reshape(questions, 3)
    planted, forbidden, plan = [], set(), []
    for query, mid, answer in (tuple(int(x) for x in row) for row in roles):
        ra, rb = (int(x) for x in rng.choice(relations, size=2, replace=False))
        planted += [(query, ra, mid), (mid, rb, answer)]
        forbidden.add(frozenset((query, answer)))
        plan.append((query, answer, ra, rb))
    block = _random_block(rng, entities, triples, relations, planted, forbidden)
    records = [
        {
            "id": f"q{i:04d}",
            "question": _question_text(labels[query], rel[ra], rel[rb]),
            "question_entities": [labels[query]],
            "answer_entities": [labels[answer]],
        }
        for i, (query, answer, ra, rb) in enumerate(plan)
    ]
    return [(labels[h], rel[r], labels[t]) for h, r, t in block], records


GENERATORS = {"scoped": generate_scoped, "shared": generate_shared}


def write_corpus(out_dir: Path, shape: str, params: dict, seed: int) -> dict:
    """Write ``kg.tsv``, ``questions.jsonl`` and ``corpus.json``; return the manifest."""
    triples, records = GENERATORS[shape](seed, **params)
    out_dir.mkdir(parents=True, exist_ok=True)
    kg_bytes = "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples).encode("utf-8")
    q_bytes = "".join(
        json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n" for rec in records
    ).encode("utf-8")
    files = {"kg.tsv": kg_bytes, "questions.jsonl": q_bytes}
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
    manifest = {
        "shape": shape,
        "params": params,
        "seed": seed,
        "triples": len(triples),
        "questions": len(records),
        "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
    }
    (out_dir / "corpus.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def gold_answers(questions_path: Path) -> dict[str, set[str]]:
    """Gold answer labels per question id, read from the generated question file."""
    gold = {}
    with questions_path.open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            gold[rec["id"]] = set(rec["answer_entities"])
    return gold
