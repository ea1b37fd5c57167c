"""Reorganize retrieved triples into ordered, merged evidence chains and QA prompts.

Chains grow from query-anchored triples through the remaining retrieved
triples by entity matching: left-to-right when the query entity is the head
of the first triple (a new triple's head must match the current tail),
right-to-left when the query entity is the tail of the last one. Only
maximal chains are emitted, no triple is reused within a chain, and chains
are ordered by the retriever score of their anchor triple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Collection, Literal, Sequence

from .config import json_field, read_json
from .kg import BACKWARD, FORWARD, KGFormatError, KnowledgeGraph, ReasoningPath, read_by_question, read_items
from .kg import write_jsonl
from .llm import CompletionRequest
from .refiner import render_path
from .retriever.subgraph import RetrievedTriple, relation_text, steps_from_record, steps_to_record

QA_SYSTEM = "Answer the question using only the provided evidence."
ORIENTATION = Literal[FORWARD, BACKWARD]
NO_EVIDENCE_MARKER = "(no evidence retrieved)"


@dataclass(frozen=True)
class EvidenceChain:
    """Steps from the query anchor toward the targets, each traversed in ``orientation``.

    ``targets`` are the entity ids the chain ends at, ascending.
    """

    steps: tuple[RetrievedTriple, ...]
    orientation: str  # FORWARD or BACKWARD
    targets: tuple[int, ...]

    def source(self, g: KnowledgeGraph) -> int:
        s, tid = g.storage, self.steps[0].tid
        return s.head[tid] if self.orientation == FORWARD else s.tail[tid]

    def tid_sequence(self) -> tuple[int, ...]:
        return tuple(step.tid for step in self.steps)


def expand_chains(
    sub: Sequence[RetrievedTriple],
    query_entities: set[int],
    g: KnowledgeGraph,
    max_len: int | None = 2,
) -> list[EvidenceChain]:
    """All maximal anchored chains up to ``max_len`` (None for unlimited).

    A triple anchored at the head expands forward (extension head matches the
    running tail); a triple anchored at the tail expands backward. Extensions
    draw from the non-anchored remainder only and a triple is never reused
    within one chain. Every anchored triple yields at least its length-1
    chain.
    """
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1 or None")
    s = g.storage
    anchors: list[tuple[RetrievedTriple, int, int]] = []
    # the non-anchored steps by the entity they enter at, each with the entity it leaves at
    by_head: dict[int, list[tuple[RetrievedTriple, int]]] = {}
    by_tail: dict[int, list[tuple[RetrievedTriple, int]]] = {}
    for step in sorted(sub, key=lambda e: e.tid):
        head, tail = s.head[step.tid], s.tail[step.tid]
        if head in query_entities or tail in query_entities:
            anchors.append((step, head, tail))
        else:
            by_head.setdefault(head, []).append((step, tail))
            by_tail.setdefault(tail, []).append((step, head))

    chains: list[EvidenceChain] = []

    def grow(anchor: RetrievedTriple, start: int, orient: str) -> None:
        index = by_head if orient == FORWARD else by_tail
        stack = [((anchor,), frozenset([anchor.tid]), start)]
        while stack:
            steps, used, frontier = stack.pop()
            extensions = (
                []
                if max_len is not None and len(steps) >= max_len
                else [(e, far) for e, far in index.get(frontier, ()) if e.tid not in used]
            )
            if not extensions:
                chains.append(EvidenceChain(steps, orient, (frontier,)))
                continue
            for ext, far in reversed(extensions):
                stack.append((steps + (ext,), used | {ext.tid}, far))

    for anchor, head, tail in anchors:
        if head in query_entities:
            grow(anchor, tail, FORWARD)
        if tail in query_entities and tail != head:
            grow(anchor, head, BACKWARD)

    chains.sort(key=lambda c: (-c.steps[0].score, c.steps[0].tid, c.tid_sequence()))
    return chains


def merge_multi_answer(chains: Sequence[EvidenceChain], g: KnowledgeGraph) -> list[EvidenceChain]:
    """Collapse chains sharing (source, orientation, relations) into one multi-target chain.

    Relations compare as rendered (:func:`relation_text`). The representative keeps the
    lexicographically smallest triple-id sequence; targets are the union over the group.
    Idempotent.
    """
    groups: dict[tuple, list[EvidenceChain]] = {}
    for chain in chains:
        key = (chain.source(g), chain.orientation, tuple(relation_text(g, step) for step in chain.steps))
        groups.setdefault(key, []).append(chain)
    return [
        replace(
            min(members, key=EvidenceChain.tid_sequence),
            targets=tuple(sorted(set().union(*(c.targets for c in members)))),
        )
        for members in groups.values()
    ]


def merge_multi_entity(
    chains: Sequence[EvidenceChain], query_entities: set[int], g: KnowledgeGraph
) -> list[EvidenceChain]:
    """Group chains with pairwise-distinct sources and a common target.

    Active only for multi-entity questions. Greedy in output order: a block
    gathers later chains whose source is new to the block and whose targets
    intersect the block's running intersection; every member's targets become
    that intersection. Blocks come first in the output; ungrouped chains
    follow in their original order.
    """
    chains = list(chains)
    if len(query_entities) <= 1 or len(chains) < 2:
        return chains
    sources = [chain.source(g) for chain in chains]
    used = [False] * len(chains)
    grouped: list[EvidenceChain] = []
    for i, chain in enumerate(chains):
        if used[i]:
            continue
        members = [i]
        inter = set(chain.targets)
        block_sources = {sources[i]}
        for j in range(i + 1, len(chains)):
            if used[j] or sources[j] in block_sources or inter.isdisjoint(chains[j].targets):
                continue
            members.append(j)
            inter.intersection_update(chains[j].targets)
            block_sources.add(sources[j])
        if len(members) < 2:
            continue
        targets = tuple(sorted(inter))
        for m in members:
            used[m] = True
            grouped.append(replace(chains[m], targets=targets))
    return grouped + [chains[i] for i in range(len(chains)) if not used[i]]


# -- prompt assembly -----------------------------------------------------------


def render_evidence_line(chain: EvidenceChain, g: KnowledgeGraph) -> str:
    """The chain from its source to its targets: the one label, or ``{a, b}`` sorted by label."""
    ends = sorted(g.entities[t] for t in chain.targets)
    end = ends[0] if len(ends) == 1 else "{" + ", ".join(ends) + "}"
    relations = [relation_text(g, step) for step in chain.steps]
    return render_path(g, chain.tid_sequence(), [chain.orientation] * len(chain.steps), relations, end)


@dataclass(frozen=True)
class QADemo:
    question: str
    evidence: tuple[str, ...]
    answers: tuple[str, ...]
    explanation: str = ""


def _qa_demo_block(demo: QADemo, include_explanations: bool) -> str:
    lines = [f"Question: {demo.question}", "Evidence:"]
    lines += [f"- {line}" for line in demo.evidence]
    if demo.explanation and include_explanations:
        lines.append(f"Explanation: {demo.explanation}")
    lines.append("Answers: " + json.dumps(list(demo.answers), ensure_ascii=False))
    return "\n".join(lines)


def build_qa_prompt(
    question_text: str,
    chains: Sequence[EvidenceChain],
    g: KnowledgeGraph,
    demos: Sequence[QADemo] = (),
    include_explanations: bool = True,
) -> CompletionRequest:
    """Evidence-chain prompt asking for a JSON string list of answers."""
    evidence = [render_evidence_line(c, g) for c in chains]
    return _qa_request(question_text, "Evidence:", evidence, demos, include_explanations)


def build_flat_qa_prompt(
    question_text: str,
    sub: Sequence[RetrievedTriple],
    g: KnowledgeGraph,
    demos: Sequence[QADemo] = (),
    include_explanations: bool = True,
) -> CompletionRequest:
    """Unorganized variant: retrieved triples listed flat in score order."""
    facts = [render_path(g, (e.tid,), (FORWARD,), (relation_text(g, e),)) for e in sub]
    return _qa_request(question_text, "Facts:", facts, demos, include_explanations)


def _qa_request(
    question_text: str, heading: str, lines: list[str], demos: Sequence[QADemo], include_explanations: bool
) -> CompletionRequest:
    blocks = [_qa_demo_block(d, include_explanations) for d in demos]
    body = [f"Question: {question_text}", heading]
    body += [f"- {line}" for line in lines] or [NO_EVIDENCE_MARKER]
    body.append("Return the answers as a JSON list of strings.")
    blocks.append("\n".join(body))
    return CompletionRequest(system_text=QA_SYSTEM, user_text="\n\n".join(blocks))


# -- serialization ---------------------------------------------------------------


def chains_to_record(qid: str, chains: Sequence[EvidenceChain], g: KnowledgeGraph) -> dict:
    return {
        "question_id": qid,
        "chains": [
            {
                **steps_to_record(chain.steps, g),
                "orientation": chain.orientation,
                "targets": [g.entities[t] for t in chain.targets],
            }
            for chain in chains
        ],
    }


def chains_from_record(rec: dict, g: KnowledgeGraph) -> list[EvidenceChain]:
    """The chains of a ``chains.jsonl`` record, their steps read as a retrieval record's; a
    chain with no steps or no targets, steps that do not connect in its orientation (checked as
    a pool path is), a target label not in ``g``, or targets that are not distinct and in
    ascending entity id raises :class:`KGFormatError`."""

    def read_chain(c: dict) -> EvidenceChain:
        steps = steps_from_record(c, g)
        if not steps:
            raise KGFormatError("a chain with no steps")
        targets: list[int] = []
        for label in json_field(c, "targets", tuple[str, ...]):
            target = g.entity_id(label)
            if target is None:
                raise KGFormatError(f"chain target {label!r} not in graph")
            if targets and target <= targets[-1]:
                raise KGFormatError(f"chain target {label!r} repeats or is out of ascending entity id order")
            targets.append(target)
        if not targets:
            raise KGFormatError("a chain with no targets")
        orientation = json_field(c, "orientation", ORIENTATION)
        ReasoningPath(tuple(s.tid for s in steps), (orientation,) * len(steps)).validate(g)
        return EvidenceChain(steps, orientation, tuple(targets))

    return read_items(rec, "chains", read_chain)


write_chains = write_jsonl


def read_chains(source: IO[str], g: KnowledgeGraph, ids: Collection[str]) -> dict[str, list[EvidenceChain]]:
    return read_by_question(source, lambda rec: chains_from_record(rec, g), "question_id", ids)


def load_qa_demos(path: str | Path) -> list[QADemo]:
    """Demonstrations from a JSON list of {question, evidence, answers, explanation?}."""
    return read_json(path, "paths.qa_demos", lambda raw: [_qa_demo(d) for d in raw], kind=list)


def _qa_demo(d: dict) -> QADemo:
    return QADemo(
        question=json_field(d, "question", str),
        evidence=json_field(d, "evidence", tuple[str, ...]),
        answers=json_field(d, "answers", tuple[str, ...]),
        explanation=json_field(d, "explanation", str, ""),
    )
