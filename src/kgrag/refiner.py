"""LLM-guided selection of high-quality reasoning chains and supervision extraction.

Candidates are textualized as left-to-right entity chains, numbered, and the
model is asked to pick a subset by number. The triples of the picked paths
become the positive supervision set for retriever training. On refusal or
garbage output the refiner falls back to the pool's shortest-path candidates.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from .kg import FORWARD, KGFormatError, KnowledgeGraph, Question, ReasoningPath, Triple
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
    question_id: str
    selected_indices: list[int]  # 0-based pool positions
    selected_paths: list[ReasoningPath]
    positive_triples: set[Triple]
    refiner_tag: str


# -- rendering ---------------------------------------------------------------


def render_chain(labels: Sequence[str], markers: Sequence[str]) -> str:
    """Join entity labels and bracketed relation markers with arrows."""
    parts = [labels[0]]
    for marker, label in zip(markers, labels[1:]):
        parts.append(f"[{marker}]")
        parts.append(label)
    return " → ".join(parts)


def textualize_path(path: ReasoningPath, g: KnowledgeGraph) -> str:
    """Render a path source-to-target; reverse-oriented steps get an inverse mark."""
    labels = [g.entity_label(e) for e in path.entity_sequence(g)]
    markers = []
    for tid, orient in zip(path.triple_ids, path.orientations):
        rel = g.relation_label(g.triple(tid).relation)
        markers.append(rel if orient == FORWARD else rel + INVERSE_MARK)
    return render_chain(labels, markers)


# -- prompt assembly ---------------------------------------------------------


def candidate_order(pool: CandidatePool, limit: int = DEFAULT_POOL_LIMIT) -> list[int]:
    """Pool positions in prompt order, truncated by provenance priority.

    Pools built by ``build_pool`` are already grouped shortest-path first, so
    the stable sort is a no-op there and truncation keeps the head.
    """
    order = sorted(range(len(pool)), key=lambda i: _PROVENANCE_RANK[pool.provenance[i]])
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
    limit: int = DEFAULT_POOL_LIMIT,
) -> CompletionRequest:
    if len(pool) == 0:
        raise RefineError(f"question {q.id}: empty candidate pool")
    order = candidate_order(pool, limit)
    blocks = [_demo_block(d) for d in demos]
    lines = [f"Question: {q.text}", "Candidate evidence chains:"]
    for rank, idx in enumerate(order, start=1):
        lines.append(f"{rank}. {textualize_path(pool.paths[idx], g)}")
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
    fallback: str = "weak",
    demos: Sequence[RefineDemo] = (),
    limit: int = DEFAULT_POOL_LIMIT,
) -> RefinedSupervision:
    """Prompt, complete, parse; fall back to shortest-path candidates if needed.

    ``fallback="weak"`` substitutes all shortest-path pool entries when the
    model refuses or selects nothing; ``fallback="error"`` raises instead.
    """
    if len(pool) == 0:
        raise RefineError(f"question {q.id}: empty candidate pool")
    order = candidate_order(pool, limit)
    request = build_refine_prompt(q, pool, g, demos, limit)
    result = client.complete(request)
    try:
        picks = parse_selection(result.text, len(order))
    except SelectionParseError:
        logger.warning("question %s: unparseable selection, applying fallback", q.id)
        picks = []
    selected = [order[p - 1] for p in picks]
    if not selected:
        if fallback == "weak":
            selected = [i for i, prov in enumerate(pool.provenance) if prov == PROV_SHORTEST]
        else:
            raise RefineError(f"question {q.id}: empty selection and fallback disabled")
    paths = [pool.paths[i] for i in selected]
    positives: set[Triple] = set()
    for path in paths:
        positives.update(path.triples(g))
    return RefinedSupervision(
        question_id=q.id,
        selected_indices=selected,
        selected_paths=paths,
        positive_triples=positives,
        refiner_tag=getattr(client, "tag", "unknown"),
    )


# -- supervision cache --------------------------------------------------------


def supervision_to_record(sup: RefinedSupervision, g: KnowledgeGraph) -> dict:
    return {
        "question_id": sup.question_id,
        "selected_indices": sup.selected_indices,
        "positive_triples": sorted(g.labels(tr) for tr in sup.positive_triples),
        "refiner_tag": sup.refiner_tag,
    }


def supervision_from_record(rec: dict, g: KnowledgeGraph) -> RefinedSupervision:
    positives: set[Triple] = set()
    for h, r, t in rec["positive_triples"]:
        tid = g.resolve(h, r, t)
        if tid is None:
            raise KGFormatError(f"supervision triple not in graph: {h}|{r}|{t}")
        positives.add(g.triple(tid))
    return RefinedSupervision(
        question_id=str(rec["question_id"]),
        selected_indices=[int(i) for i in rec["selected_indices"]],
        selected_paths=[],
        positive_triples=positives,
        refiner_tag=str(rec.get("refiner_tag", "unknown")),
    )


def write_supervision(sink: IO[str], records: Iterable[dict]) -> None:
    for rec in records:
        sink.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")


def read_supervision(source: IO[str], g: KnowledgeGraph) -> dict[str, RefinedSupervision]:
    out: dict[str, RefinedSupervision] = {}
    for line in source:
        line = line.strip()
        if not line:
            continue
        sup = supervision_from_record(json.loads(line), g)
        out[sup.question_id] = sup
    return out


def load_refine_demos(path: str | Path) -> list[RefineDemo]:
    """Demonstrations from a JSON list of {question, chains, selection, explanation?}."""
    with Path(path).open(encoding="utf-8") as fh:
        raw = json.load(fh)
    return [
        RefineDemo(
            question=str(d["question"]),
            chains=tuple(str(c) for c in d["chains"]),
            selection=tuple(int(i) for i in d["selection"]),
            explanation=str(d.get("explanation", "")),
        )
        for d in raw
    ]
