"""Multi-faceted candidate reasoning-path pools.

A pool gathers three facets per question: all query-to-answer shortest paths
(edges traversable in both directions, orientation recorded per step), the
one-hop neighborhood of the query entities, and the one-hop neighborhood of
the answer entities. Two compression passes follow: keep only the shortest
paths of one representative answer, then collapse paths that share the same
(provenance, source entity, relation path) class.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import IO, Iterable

from .kg import (
    KGFormatError,
    KnowledgeGraph,
    Question,
    ReasoningPath,
    hop_distances,
    step_exit,
)

logger = logging.getLogger(__name__)

PROV_SHORTEST = "shortest_path"
PROV_QUERY = "query_neighborhood"
PROV_ANSWER = "answer_neighborhood"

DEFAULT_PATH_CAP = 256


@dataclass
class CandidatePool:
    """Parallel lists: one path, provenance tag, and merged-class size per entry."""

    paths: list[ReasoningPath] = field(default_factory=list)
    provenance: list[str] = field(default_factory=list)
    class_sizes: list[int] = field(default_factory=list)
    representative_answer: int | None = None

    def __len__(self) -> int:
        return len(self.paths)

    def append(self, path: ReasoningPath, prov: str, size: int = 1) -> None:
        self.paths.append(path)
        self.provenance.append(prov)
        self.class_sizes.append(size)

    def entries(self) -> Iterable[tuple[ReasoningPath, str, int]]:
        return zip(self.paths, self.provenance, self.class_sizes)


# -- shortest paths ---------------------------------------------------------


def shortest_paths(
    g: KnowledgeGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    cap: int = DEFAULT_PATH_CAP,
) -> list[ReasoningPath]:
    """All minimum-length source-to-target paths, treating edges as undirected.

    Per (source, target) pair, every path of the BFS-minimal length is
    returned in lexicographic triple-id order, truncated to ``cap`` paths.
    Pairs with source == target contribute nothing (zero-length paths are
    excluded), as do unreachable pairs.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    paths: list[ReasoningPath] = []
    dist_to_target: dict[int, dict[int, int]] = {}

    for s in sorted(set(sources)):
        dist_s = hop_distances(g, (s,))
        for t in sorted(set(targets)):
            if s == t or t not in dist_s:
                continue
            if t not in dist_to_target:
                dist_to_target[t] = hop_distances(g, (t,))
            dist_t = dist_to_target[t]
            total = dist_s[t]
            emitted = 0

            # DFS along edges that stay on a shortest s-t path; scanning
            # steps in triple-id order yields lexicographic output.
            stack: list[tuple[int, tuple[int, ...], tuple[str, ...]]] = [(s, (), ())]
            acc: list[ReasoningPath] = []
            while stack and emitted < cap:
                u, tids, orients = stack.pop()
                depth = len(tids)
                if u == t and depth == total:
                    acc.append(ReasoningPath(tids, orients))
                    emitted += 1
                    continue
                # push in reverse so the smallest triple id is expanded first
                for tid, orient in reversed(g.steps(u)):
                    v = step_exit(g.triple(tid), orient)
                    if dist_s.get(v) == depth + 1 and dist_t.get(v) == total - depth - 1:
                        stack.append((v, tids + (tid,), orients + (orient,)))
            paths.extend(acc)
    return paths


# -- neighborhood facets -----------------------------------------------------


def _neighborhood(g: KnowledgeGraph, anchors: Iterable[int]) -> list[ReasoningPath]:
    seen: set[int] = set()
    out: list[ReasoningPath] = []
    for e in sorted(set(anchors)):
        for tid, orient in g.steps(e):
            if tid in seen:
                continue
            seen.add(tid)
            out.append(ReasoningPath((tid,), (orient,)))
    return out


def query_neighborhood(g: KnowledgeGraph, q: Question) -> list[ReasoningPath]:
    """One length-1 path per triple incident to any query entity, deduplicated."""
    return _neighborhood(g, q.query_entities)


def answer_neighborhood(g: KnowledgeGraph, q: Question) -> list[ReasoningPath]:
    """One length-1 path per triple incident to any answer entity, deduplicated."""
    return _neighborhood(g, q.answer_entities)


# -- compression -------------------------------------------------------------


def merge_answers(pool: CandidatePool, q: Question, g: KnowledgeGraph) -> CandidatePool:
    """Keep only shortest-path entries ending at one representative answer.

    The representative is the answer entity with the most shortest paths in
    the pool; ties break toward the smallest entity id. Neighborhood entries
    are untouched. With no shortest-path entries the pool is returned as is.
    """
    counts: dict[int, int] = {}
    for path, prov, _ in pool.entries():
        if prov == PROV_SHORTEST:
            counts[path.terminal(g)] = counts.get(path.terminal(g), 0) + 1
    if not counts:
        return CandidatePool(
            list(pool.paths), list(pool.provenance), list(pool.class_sizes), None
        )
    best = max(counts, key=lambda e: (counts[e], -e))
    merged = CandidatePool(representative_answer=best)
    for path, prov, size in pool.entries():
        if prov == PROV_SHORTEST and path.terminal(g) != best:
            continue
        merged.append(path, prov, size)
    return merged


def merge_relation_chains(pool: CandidatePool, g: KnowledgeGraph) -> CandidatePool:
    """Collapse paths sharing (provenance, source entity, relation path).

    Each class keeps its lexicographically smallest triple-id sequence as the
    representative; the class size accumulates. Idempotent.
    """
    groups: dict[tuple, list[int]] = {}
    order: list[tuple] = []
    for i, (path, prov, _) in enumerate(pool.entries()):
        key = (prov, path.source(g), path.relation_path(g))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)

    merged = CandidatePool(representative_answer=pool.representative_answer)
    for key in order:
        members = groups[key]
        rep = min(members, key=lambda i: pool.paths[i].triple_ids)
        size = sum(pool.class_sizes[i] for i in members)
        merged.append(pool.paths[rep], pool.provenance[rep], size)
    return merged


def build_pool(
    g: KnowledgeGraph, q: Question, cap: int = DEFAULT_PATH_CAP
) -> CandidatePool:
    """Generate the three facets, deduplicate, then apply both merge passes."""
    facets = (
        (shortest_paths(g, q.query_entities, q.answer_entities, cap), PROV_SHORTEST),
        (query_neighborhood(g, q), PROV_QUERY),
        (answer_neighborhood(g, q), PROV_ANSWER),
    )
    pool = CandidatePool()
    seen: set[tuple] = set()
    for paths, prov in facets:
        for path in paths:
            if path.key() in seen:
                continue
            seen.add(path.key())
            pool.append(path, prov, 1)
    pool = merge_answers(pool, q, g)
    return merge_relation_chains(pool, g)


# -- serialization -----------------------------------------------------------


def pool_to_record(qid: str, pool: CandidatePool, g: KnowledgeGraph) -> dict:
    paths = []
    for path, prov, size in pool.entries():
        paths.append(
            {
                "triples": [g.labels(tr) for tr in path.triples(g)],
                "orientations": list(path.orientations),
                "provenance": prov,
                "class_size": size,
            }
        )
    rep = pool.representative_answer
    return {
        "id": qid,
        "paths": paths,
        "representative_answer": g.entity_label(rep) if rep is not None else None,
    }


def pool_from_record(rec: dict, g: KnowledgeGraph) -> tuple[str, CandidatePool]:
    pool = CandidatePool()
    for entry in rec["paths"]:
        tids = []
        for h, r, t in entry["triples"]:
            tid = g.resolve(h, r, t)
            if tid is None:
                raise KGFormatError(f"pool triple not in graph: {h}|{r}|{t}")
            tids.append(tid)
        pool.append(
            ReasoningPath(tuple(tids), tuple(entry["orientations"])),
            entry["provenance"],
            int(entry.get("class_size", 1)),
        )
    rep_label = rec.get("representative_answer")
    pool.representative_answer = g.entity_id(rep_label) if rep_label else None
    return str(rec["id"]), pool


def write_pools(sink: IO[str], records: Iterable[dict]) -> None:
    for rec in records:
        sink.write(json.dumps(rec, sort_keys=True) + "\n")


def read_pools(source: IO[str], g: KnowledgeGraph) -> dict[str, CandidatePool]:
    pools: dict[str, CandidatePool] = {}
    for line in source:
        line = line.strip()
        if not line:
            continue
        qid, pool = pool_from_record(json.loads(line), g)
        pools[qid] = pool
    return pools
