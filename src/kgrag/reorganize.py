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
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Collection, Sequence

from .config import json_field, read_json
from .kg import BACKWARD, FORWARD, KGFormatError, read_by_question, write_jsonl
from .llm import CompletionRequest
from .refiner import render_chain
from .retriever.subgraph import RetrievedSubgraph, RetrievedTriple

logger = logging.getLogger(__name__)

QA_SYSTEM = "Answer the question using only the provided evidence."
NO_EVIDENCE_MARKER = "(no evidence retrieved)"


@dataclass(frozen=True)
class EvidenceChain:
    """Steps in traversal order from the query anchor toward the targets."""

    steps: tuple[RetrievedTriple, ...]
    orientations: tuple[str, ...]
    source: int
    targets: frozenset[int]
    target_labels: tuple[str, ...]
    group: int | None = None  # multi-entity merge block, when any

    def relation_path(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (step.relation, orient) for step, orient in zip(self.steps, self.orientations)
        )

    def anchor(self) -> RetrievedTriple:
        return self.steps[0]

    def source_label(self) -> str:
        anchor = self.anchor()
        return anchor.head_label if self.orientations[0] == FORWARD else anchor.tail_label

    def tid_sequence(self) -> tuple[int, ...]:
        return tuple(step.tid for step in self.steps)

    def validate(self) -> None:
        cur = self.source
        for step, orient in zip(self.steps, self.orientations):
            entry = step.head if orient == FORWARD else step.tail
            if entry != cur:
                raise ValueError(f"broken chain connectivity at triple {step.tid}")
            cur = step.tail if orient == FORWARD else step.head
        if not self.targets:
            raise ValueError("chain has no targets")


def split_source(
    sub: RetrievedSubgraph, query_entities: set[int]
) -> tuple[list[RetrievedTriple], list[RetrievedTriple]]:
    """Query-anchored triples (head or tail in the query set) vs the rest."""
    src = [e for e in sub.entries if e.head in query_entities or e.tail in query_entities]
    tgt = [e for e in sub.entries if not (e.head in query_entities or e.tail in query_entities)]
    return src, tgt


def _single_target(chain_steps: Sequence[RetrievedTriple], orients: Sequence[str]) -> tuple[int, str]:
    last, orient = chain_steps[-1], orients[-1]
    return (last.tail, last.tail_label) if orient == FORWARD else (last.head, last.head_label)


def expand_chains(
    sub: RetrievedSubgraph,
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
        source = anchor.head if orient == FORWARD else anchor.tail
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
                orients = tuple(orient for _ in steps)
                target, label = _single_target(steps, orients)
                chains.append(
                    EvidenceChain(
                        steps=steps,
                        orientations=orients,
                        source=source,
                        targets=frozenset([target]),
                        target_labels=(label,),
                    )
                )
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
    """Collapse chains sharing (source, relation path) into one multi-target chain.

    The representative keeps the lexicographically smallest triple-id
    sequence; targets are the union over the group. Idempotent.
    """
    groups: dict[tuple, list[EvidenceChain]] = {}
    order: list[tuple] = []
    for chain in chains:
        key = (chain.source, chain.relation_path())
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(chain)

    merged = []
    for key in order:
        members = groups[key]
        rep = min(members, key=lambda c: c.tid_sequence())
        targets = frozenset().union(*(c.targets for c in members))
        label_by_target = {}
        for member in members:
            # target_labels are aligned with sorted(targets) by construction
            for target, label in zip(sorted(member.targets), member.target_labels):
                label_by_target[target] = label
        labels = tuple(label_by_target[t] for t in sorted(targets))
        merged.append(replace(rep, targets=targets, target_labels=labels))
    return merged


def merge_multi_entity(
    chains: Sequence[EvidenceChain], query_entities: set[int]
) -> list[EvidenceChain]:
    """Group chains with pairwise-distinct sources and a common target.

    Active only for multi-entity questions. Greedy in output order: a block
    gathers later chains whose source is new to the block and whose targets
    intersect the block's running intersection; every member's targets become
    that intersection. Blocks come first in the output, each member tagged
    with a block id; ungrouped chains follow in their original order.
    """
    chains = list(chains)
    if len(query_entities) <= 1 or len(chains) < 2:
        return chains
    used = [False] * len(chains)
    blocks: list[list[EvidenceChain]] = []
    for i, chain in enumerate(chains):
        if used[i]:
            continue
        members = [i]
        inter = set(chain.targets)
        sources = {chain.source}
        for j in range(i + 1, len(chains)):
            if used[j] or chains[j].source in sources:
                continue
            if inter & chains[j].targets:
                members.append(j)
                inter &= set(chains[j].targets)
                sources.add(chains[j].source)
        if len(members) < 2:
            continue
        block_id = len(blocks)
        block = []
        for m in members:
            used[m] = True
            member = chains[m]
            labels = tuple(
                lab
                for t, lab in zip(sorted(member.targets), member.target_labels)
                if t in inter
            )
            block.append(
                replace(member, targets=frozenset(inter), target_labels=labels, group=block_id)
            )
        blocks.append(block)
    grouped = [c for block in blocks for c in block]
    rest = [chains[i] for i in range(len(chains)) if not used[i]]
    return grouped + rest


# -- prompt assembly -----------------------------------------------------------


def render_evidence_line(chain: EvidenceChain) -> str:
    labels = [chain.source_label()]
    markers = []
    for step, orient in zip(chain.steps, chain.orientations):
        markers.append(step.relation if orient == FORWARD else step.relation + "⁻")
        labels.append(step.tail_label if orient == FORWARD else step.head_label)
    if len(chain.targets) > 1:
        labels[-1] = "{" + ", ".join(sorted(chain.target_labels)) + "}"
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
    blocks = [_qa_demo_block(d, include_explanations) for d in demos]
    lines = [f"Question: {question_text}", "Evidence:"]
    if chains:
        lines += [f"- {render_evidence_line(c)}" for c in chains]
    else:
        lines.append(NO_EVIDENCE_MARKER)
    lines.append("Return the answers as a JSON list of strings.")
    blocks.append("\n".join(lines))
    return CompletionRequest(system_text=QA_SYSTEM, user_text="\n\n".join(blocks))


def build_flat_qa_prompt(
    question_text: str,
    sub: RetrievedSubgraph,
    demos: Sequence[QADemo] = (),
    include_explanations: bool = True,
) -> CompletionRequest:
    """Unorganized variant: retrieved triples listed flat in score order."""
    blocks = [_qa_demo_block(d, include_explanations) for d in demos]
    lines = [f"Question: {question_text}", "Facts:"]
    if sub.entries:
        lines += [
            f"- {render_chain([e.head_label, e.tail_label], [e.relation])}" for e in sub.entries
        ]
    else:
        lines.append(NO_EVIDENCE_MARKER)
    lines.append("Return the answers as a JSON list of strings.")
    blocks.append("\n".join(lines))
    return CompletionRequest(system_text=QA_SYSTEM, user_text="\n\n".join(blocks))


# -- serialization ---------------------------------------------------------------


def chains_to_record(qid: str, chains: Sequence[EvidenceChain]) -> dict:
    out = []
    for chain in chains:
        out.append(
            {
                "steps": [[s.head_label, s.relation, s.tail_label] for s in chain.steps],
                "tids": [s.tid for s in chain.steps],
                "heads": [s.head for s in chain.steps],
                "tails": [s.tail for s in chain.steps],
                "scores": [s.score for s in chain.steps],
                "orientations": list(chain.orientations),
                "source": chain.source_label(),
                "source_id": chain.source,
                # aligned pairwise: target_labels[i] names target_ids[i]
                "targets": list(chain.target_labels),
                "target_ids": sorted(chain.targets),
                "relation_path": [[r, o] for r, o in chain.relation_path()],
                "group": chain.group,
            }
        )
    return {"question_id": qid, "chains": out}


# a chain record's list types and per-step columns, subscripted once (each subscript is a new object)
_IDS, _LABELS = tuple[int, ...], tuple[str, ...]
_COLUMNS = dict(
    steps=tuple[tuple[str, str, str], ...], tids=_IDS, heads=_IDS, tails=_IDS, scores=tuple[float, ...]
)


def chains_from_record(rec: dict) -> list[EvidenceChain]:
    chains = []
    for c in json_field(rec, "chains", tuple[dict, ...]):
        columns = [json_field(c, key, tp) for key, tp in _COLUMNS.items()]
        if len({len(column) for column in columns}) > 1:
            raise KGFormatError("steps, tids, heads, tails and scores differ in length")
        steps = tuple(
            RetrievedTriple(tid, h_id, t_id, h, r, t, score)
            for (h, r, t), tid, h_id, t_id, score in zip(*columns)
        )
        chains.append(
            EvidenceChain(
                steps=steps,
                orientations=json_field(c, "orientations", _LABELS),
                source=json_field(c, "source_id", int),
                targets=frozenset(json_field(c, "target_ids", _IDS)),
                target_labels=json_field(c, "targets", _LABELS),
                group=json_field(c, "group", int | None, None),
            )
        )
    return chains


write_chains = write_jsonl


def read_chains(source: IO[str], ids: Collection[str]) -> dict[str, list[EvidenceChain]]:
    return read_by_question(source, chains_from_record, "question_id", ids)


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
