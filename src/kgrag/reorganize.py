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
from .kg import BACKWARD, FORWARD, KGFormatError, KnowledgeGraph, read_by_question, write_jsonl
from .llm import CompletionRequest
from .refiner import INVERSE_MARK, render_chain
from .retriever.subgraph import RetrievedTriple, steps_from_record, steps_to_record

QA_SYSTEM = "Answer the question using only the provided evidence."
ORIENTATION = Literal[FORWARD, BACKWARD]
NO_EVIDENCE_MARKER = "(no evidence retrieved)"


@dataclass(frozen=True)
class EvidenceChain:
    """Steps from the query anchor toward the targets, each traversed in ``orientation``.

    ``targets`` are the ``(entity id, label)`` pairs the chain ends at, in ascending id.
    """

    steps: tuple[RetrievedTriple, ...]
    orientation: str  # FORWARD or BACKWARD
    targets: tuple[tuple[int, str], ...]

    def anchor(self) -> RetrievedTriple:
        return self.steps[0]

    @property
    def source(self) -> int:
        return self.steps[0].head if self.orientation == FORWARD else self.steps[0].tail

    def source_label(self) -> str:
        return self.steps[0].head_label if self.orientation == FORWARD else self.steps[0].tail_label

    def tid_sequence(self) -> tuple[int, ...]:
        return tuple(step.tid for step in self.steps)


def split_source(
    sub: Sequence[RetrievedTriple], query_entities: set[int]
) -> tuple[list[RetrievedTriple], list[RetrievedTriple]]:
    """Query-anchored triples (head or tail in the query set) vs the rest."""
    src = [e for e in sub if e.head in query_entities or e.tail in query_entities]
    tgt = [e for e in sub if not (e.head in query_entities or e.tail in query_entities)]
    return src, tgt


def expand_chains(
    sub: Sequence[RetrievedTriple],
    query_entities: set[int],
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
    src, tgt = split_source(sub, query_entities)
    by_head: dict[int, list[RetrievedTriple]] = {}
    by_tail: dict[int, list[RetrievedTriple]] = {}
    for entry in sorted(tgt, key=lambda e: e.tid):
        by_head.setdefault(entry.head, []).append(entry)
        by_tail.setdefault(entry.tail, []).append(entry)

    chains: list[EvidenceChain] = []

    def grow(anchor: RetrievedTriple, orient: str) -> None:
        index = by_head if orient == FORWARD else by_tail
        stack: list[tuple[tuple[RetrievedTriple, ...], frozenset[int], int]] = [
            ((anchor,), frozenset([anchor.tid]), anchor.tail if orient == FORWARD else anchor.head)
        ]
        while stack:
            steps, used, frontier = stack.pop()
            extensions = (
                []
                if max_len is not None and len(steps) >= max_len
                else [e for e in index.get(frontier, ()) if e.tid not in used]
            )
            if not extensions:
                last = steps[-1]
                label = last.tail_label if orient == FORWARD else last.head_label
                chains.append(EvidenceChain(steps, orient, ((frontier, label),)))
                continue
            for ext in reversed(extensions):
                nxt = ext.tail if orient == FORWARD else ext.head
                stack.append((steps + (ext,), used | {ext.tid}, nxt))

    for anchor in sorted(src, key=lambda e: e.tid):
        if anchor.head in query_entities:
            grow(anchor, FORWARD)
        if anchor.tail in query_entities and anchor.tail != anchor.head:
            grow(anchor, BACKWARD)

    chains.sort(key=lambda c: (-c.anchor().score, c.anchor().tid, c.tid_sequence()))
    return chains


def merge_multi_answer(chains: Sequence[EvidenceChain]) -> list[EvidenceChain]:
    """Collapse chains sharing (source, orientation, relations) into one multi-target chain.

    The representative keeps the lexicographically smallest triple-id
    sequence; targets are the union over the group. Idempotent.
    """
    groups: dict[tuple, list[EvidenceChain]] = {}
    for chain in chains:
        key = (chain.source, chain.orientation, tuple(step.relation for step in chain.steps))
        groups.setdefault(key, []).append(chain)
    return [
        replace(
            min(members, key=EvidenceChain.tid_sequence),
            targets=tuple(sorted(set().union(*(c.targets for c in members)))),
        )
        for members in groups.values()
    ]


def merge_multi_entity(
    chains: Sequence[EvidenceChain], query_entities: set[int]
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
    sources = [chain.source for chain in chains]
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


def render_evidence_line(chain: EvidenceChain) -> str:
    """The chain from its source to its targets: the one label, or ``{a, b}`` sorted by label."""
    forward = chain.orientation == FORWARD
    labels = [chain.source_label()] + [s.tail_label if forward else s.head_label for s in chain.steps[:-1]]
    ends = sorted(label for _, label in chain.targets)
    labels.append(ends[0] if len(ends) == 1 else "{" + ", ".join(ends) + "}")
    markers = [s.relation if forward else s.relation + INVERSE_MARK for s in chain.steps]
    return render_chain(labels, markers)


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
    demos: Sequence[QADemo] = (),
    include_explanations: bool = True,
) -> CompletionRequest:
    """Evidence-chain prompt asking for a JSON string list of answers."""
    evidence = [render_evidence_line(c) for c in chains]
    return _qa_request(question_text, "Evidence:", evidence, demos, include_explanations)


def build_flat_qa_prompt(
    question_text: str,
    sub: Sequence[RetrievedTriple],
    demos: Sequence[QADemo] = (),
    include_explanations: bool = True,
) -> CompletionRequest:
    """Unorganized variant: retrieved triples listed flat in score order."""
    facts = [render_chain([e.head_label, e.tail_label], [e.relation]) for e in sub]
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
                "targets": [label for _, label in chain.targets],
            }
            for chain in chains
        ],
    }


def chains_from_record(rec: dict, g: KnowledgeGraph) -> list[EvidenceChain]:
    """The chains of a ``chains.jsonl`` record, their steps read as a retrieval record's; a
    chain with no steps or no targets, a target label not in ``g``, or targets that are not
    distinct and in ascending entity id raises :class:`KGFormatError`."""
    chains = []
    for c in json_field(rec, "chains", tuple[dict, ...]):
        steps = steps_from_record(c, g)
        if not steps:
            raise KGFormatError("a chain with no steps")
        targets = []
        for label in json_field(c, "targets", tuple[str, ...]):
            target = g.entity_id(label)
            if target is None:
                raise KGFormatError(f"chain target {label!r} not in graph")
            if targets and target <= targets[-1][0]:
                raise KGFormatError(f"chain target {label!r} repeats or is out of ascending entity id order")
            targets.append((target, label))
        if not targets:
            raise KGFormatError("a chain with no targets")
        orientation = json_field(c, "orientation", ORIENTATION)
        chains.append(EvidenceChain(steps, orientation, tuple(targets)))
    return chains


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
