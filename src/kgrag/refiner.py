"""LLM-guided selection of high-quality reasoning chains and supervision extraction.

Candidates are textualized as left-to-right entity chains, numbered, and the
model is asked to pick a subset by number. The triples of the picked paths
become the positive supervision set for retriever training. On refusal or
garbage output the refiner falls back to the pool's shortest-path candidates.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Collection, Sequence

from .config import json_field, read_json
from .kg import FORWARD, KGFormatError, KnowledgeGraph, Question
from .kg import read_by_question, triples_from_record, triples_to_record, write_jsonl
from .llm import CompletionRequest
from .pool import PROV_ANSWER, PROV_QUERY, PROV_SHORTEST, CandidatePool

logger = logging.getLogger(__name__)

INVERSE_MARK = "⁻"
DEFAULT_POOL_LIMIT = 137

REFINE_SYSTEM = "You select evidence for question answering. Follow the output format exactly."

_PROVENANCE_RANK = {PROV_SHORTEST: 0, PROV_QUERY: 1, PROV_ANSWER: 2}


class RefineError(RuntimeError):
    pass


class SelectionParseError(ValueError):
    pass


@dataclass(frozen=True)
class RefineDemo:
    """In-context demonstration: a worked selection with an optional explanation."""

    question: str
    chains: tuple[str, ...]
    selection: tuple[int, ...]
    explanation: str = ""


@dataclass
class RefinedSupervision:
    positive_triples: set[int]  # triple ids
    refiner_tag: str


# -- rendering ---------------------------------------------------------------


def render_path(
    g: KnowledgeGraph,
    tids: Sequence[int],
    orientations: Sequence[str],
    relations: Sequence[str] | None = None,
    end: str | None = None,
) -> str:
    """The steps ``tids``, each traversed in its orientation, from the first one's entry entity:
    entity labels and bracketed relation labels joined by arrows, a backward step's relation
    with the inverse mark. ``relations`` stands for the steps' own labels (a merged step shows
    more than one) and ``end`` for the label of the last entity."""
    s, entities = g.storage, g.entities
    if relations is None:
        relations = [g.relations[s.relation[tid]] for tid in tids]
    first = tids[0]
    parts = [entities[s.head[first] if orientations[0] == FORWARD else s.tail[first]]]
    for tid, orient, relation in zip(tids, orientations, relations):
        forward = orient == FORWARD
        parts.append(f"[{relation}]" if forward else f"[{relation}{INVERSE_MARK}]")
        parts.append(entities[s.tail[tid] if forward else s.head[tid]])
    if end is not None:
        parts[-1] = end
    return " → ".join(parts)


# -- prompt assembly ---------------------------------------------------------


def candidate_order(pool: CandidatePool, limit: int = DEFAULT_POOL_LIMIT) -> list[int]:
    """Pool positions in prompt order, truncated by provenance priority.

    Pools built by ``build_pool`` are already grouped shortest-path first, so
    the stable sort is a no-op there and truncation keeps the head.
    """
    order = sorted(range(len(pool)), key=lambda i: _PROVENANCE_RANK[pool[i][1]])
    if limit and len(order) > limit:
        logger.warning("candidate pool %d exceeds limit %d; truncating", len(order), limit)
        order = order[:limit]
    return order


def _demo_block(demo: RefineDemo) -> str:
    lines = [f"Question: {demo.question}", "Candidate evidence chains:"]
    lines += [f"{i}. {chain}" for i, chain in enumerate(demo.chains, start=1)]
    if demo.explanation:
        lines.append(f"Explanation: {demo.explanation}")
    lines.append("Selected: " + ", ".join(str(i) for i in demo.selection))
    return "\n".join(lines)


def build_refine_prompt(
    q: Question,
    pool: CandidatePool,
    g: KnowledgeGraph,
    demos: Sequence[RefineDemo] = (),
    order: Sequence[int] | None = None,
) -> CompletionRequest:
    """The selection prompt over the pool positions ``order`` (by default :func:`candidate_order`)."""
    if len(pool) == 0:
        raise RefineError(f"question {q.id}: empty candidate pool")
    if order is None:
        order = candidate_order(pool)
    blocks = [_demo_block(d) for d in demos]
    lines = [f"Question: {q.text}", "Candidate evidence chains:"]
    for rank, idx in enumerate(order, start=1):
        path = pool[idx][0]
        lines.append(f"{rank}. {render_path(g, path.triple_ids, path.orientations)}")
    lines.append(
        "Select the chains that together give sufficient and logically coherent "
        "evidence for answering the question. Reply with the chosen numbers as a "
        "comma-separated list (for example: 1, 3)."
    )
    blocks.append("\n".join(lines))
    return CompletionRequest(system_text=REFINE_SYSTEM, user_text="\n\n".join(blocks))


def parse_selection(response: str, pool_size: int) -> list[int]:
    """1-based indices from the first response line containing digits.

    Duplicates are dropped (order preserved) and out-of-range values are
    discarded with a logged count. A response with no digits at all raises
    :class:`SelectionParseError`.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    for line in response.splitlines():
        if not re.search(r"\d", line):
            continue
        picked: list[int] = []
        seen: set[int] = set()
        dropped = 0
        for token in re.findall(r"\d+", line):
            value = int(token)
            if value in seen:
                continue
            seen.add(value)
            if 1 <= value <= pool_size:
                picked.append(value)
            else:
                dropped += 1
        if dropped:
            logger.warning("selection had %d out-of-range indices", dropped)
        return picked
    raise SelectionParseError(f"no selectable index in response: {response[:80]!r}")


# -- refinement --------------------------------------------------------------


def refine(
    q: Question,
    pool: CandidatePool,
    g: KnowledgeGraph,
    client,
    demos: Sequence[RefineDemo] = (),
    limit: int = DEFAULT_POOL_LIMIT,
) -> RefinedSupervision:
    """Prompt, complete, parse; fall back to shortest-path candidates if needed.

    When the model refuses or selects nothing, every shortest-path pool entry
    is selected instead. An empty pool raises :class:`RefineError` before any request.
    """
    order = candidate_order(pool, limit)
    request = build_refine_prompt(q, pool, g, demos, order)
    result = client.complete(request)
    try:
        picks = parse_selection(result.text, len(order))
    except SelectionParseError:
        logger.warning("question %s: unparseable selection, applying fallback", q.id)
        picks = []
    selected = [order[p - 1] for p in picks]
    if not selected:
        selected = [i for i, (_, prov) in enumerate(pool) if prov == PROV_SHORTEST]
    positives = {tid for i in selected for tid in pool[i][0].triple_ids}
    return RefinedSupervision(positive_triples=positives, refiner_tag=getattr(client, "tag", "unknown"))


# -- supervision cache --------------------------------------------------------


def supervision_to_record(qid: str, sup: RefinedSupervision, g: KnowledgeGraph) -> dict:
    """The positive triples as a triple column, in ascending id."""
    return {"question_id": qid, **triples_to_record(g, sorted(sup.positive_triples)), "refiner_tag": sup.refiner_tag}


def supervision_from_record(rec: dict, g: KnowledgeGraph) -> RefinedSupervision:
    """The supervision :func:`supervision_to_record` wrote; ids that repeat or descend raise
    :class:`KGFormatError`."""
    tids = triples_from_record(rec, g)
    if any(a >= b for a, b in zip(tids, tids[1:])):
        raise KGFormatError("supervision triple ids repeat or are out of ascending order")
    return RefinedSupervision(set(tids), json_field(rec, "refiner_tag", str))


write_supervision = write_jsonl


def read_supervision(
    source: IO[str], g: KnowledgeGraph, ids: Collection[str]
) -> dict[str, RefinedSupervision]:
    """One record at most per question: refine skips questions without candidates or past ``--limit``."""
    return read_by_question(
        source, lambda rec: supervision_from_record(rec, g), "question_id", ids, every=False
    )


def load_refine_demos(path: str | Path) -> list[RefineDemo]:
    """Demonstrations from a JSON list of {question, chains, selection, explanation?}."""
    return read_json(path, "paths.refine_demos", lambda raw: [_refine_demo(d) for d in raw], kind=list)


def _refine_demo(d: dict) -> RefineDemo:
    return RefineDemo(
        question=json_field(d, "question", str),
        chains=json_field(d, "chains", tuple[str, ...]),
        selection=json_field(d, "selection", tuple[int, ...]),
        explanation=json_field(d, "explanation", str, ""),
    )
