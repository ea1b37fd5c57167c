"""Multi-faceted candidate reasoning-path pools.

A pool gathers three facets per question: all query-to-answer shortest paths
(edges traversable in both directions, orientation recorded per step), the
one-hop neighborhood of the query entities, and the one-hop neighborhood of
the answer entities. Two compression passes follow: keep only the shortest
paths of one representative answer, then collapse paths that share the same
(provenance, source entity, relation path) class.
"""

from __future__ import annotations

from collections import Counter
from typing import IO, Collection, Iterable, Literal

from .config import json_field
from .kg import KGFormatError, KnowledgeGraph, Question, ReasoningPath, hop_distances, read_by_question, step_exit
from .kg import read_items, triples_from_record, triples_to_record, write_jsonl

PROV_SHORTEST = "shortest_path"
PROV_QUERY = "query_neighborhood"
PROV_ANSWER = "answer_neighborhood"
PROVENANCE = Literal[PROV_SHORTEST, PROV_QUERY, PROV_ANSWER]

DEFAULT_PATH_CAP = 256


CandidatePool = list[tuple[ReasoningPath, str]]
"""A question's candidate paths, each with its provenance."""


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
    targets = sorted(set(targets))
    # The DFS of a pair s-t of length L reads distances from s below L (and t's own) and
    # distances to t below L, so each BFS stops once it has those levels.
    dist_from = {s: hop_distances(g, (s,), targets=targets) for s in sorted(set(sources))}
    dist_to = {
        t: hop_distances(g, (t,), depth=max(lengths) - 1)
        for t in targets
        if (lengths := [dist_s[t] for s, dist_s in dist_from.items() if s != t and t in dist_s])
    }
    paths: list[ReasoningPath] = []
    for s, dist_s in dist_from.items():
        for t in targets:
            if s == t or t not in dist_s:
                continue
            dist_t = dist_to[t]
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
    counts = Counter(path.terminal(g) for path, prov in pool if prov == PROV_SHORTEST)
    if not counts:
        return list(pool)
    best = max(counts, key=lambda e: (counts[e], -e))
    return [(path, prov) for path, prov in pool if prov != PROV_SHORTEST or path.terminal(g) == best]


def merge_relation_chains(pool: CandidatePool, g: KnowledgeGraph) -> CandidatePool:
    """Collapse paths sharing (provenance, source entity, relation path).

    Each class keeps its lexicographically smallest triple-id sequence, in the
    order the classes first appear. Idempotent.
    """
    classes: dict[tuple, tuple[ReasoningPath, str]] = {}
    for path, prov in pool:
        key = (prov, path.source(g), path.relation_path(g))
        if key not in classes or path.triple_ids < classes[key][0].triple_ids:
            classes[key] = (path, prov)
    return list(classes.values())


def build_pool(
    g: KnowledgeGraph, q: Question, cap: int = DEFAULT_PATH_CAP
) -> CandidatePool:
    """Generate the three facets, deduplicate, then apply both merge passes."""
    facets = (
        (shortest_paths(g, q.query_entities, q.answer_entities, cap), PROV_SHORTEST),
        (query_neighborhood(g, q), PROV_QUERY),
        (answer_neighborhood(g, q), PROV_ANSWER),
    )
    pool: CandidatePool = []
    seen: set[tuple] = set()
    for paths, prov in facets:
        for path in paths:
            if path.key() in seen:
                continue
            seen.add(path.key())
            pool.append((path, prov))
    pool = merge_answers(pool, q, g)
    return merge_relation_chains(pool, g)


# -- serialization -----------------------------------------------------------


def pool_to_record(qid: str, pool: CandidatePool, g: KnowledgeGraph) -> dict:
    paths = [
        {**triples_to_record(g, path.triple_ids), "orientations": list(path.orientations), "provenance": prov}
        for path, prov in pool
    ]
    return {"id": qid, "paths": paths}


def pool_from_record(rec: dict, g: KnowledgeGraph) -> CandidatePool:
    seen: set[tuple] = set()  # build_pool writes each path once

    def read_path(entry: dict) -> tuple[ReasoningPath, str]:
        path = ReasoningPath(triples_from_record(entry, g), json_field(entry, "orientations", tuple[str, ...]))
        path.validate(g)
        if path.key() in seen:
            shown = " ".join("|".join(labels) for labels in g.triple_labels(path.triple_ids))
            raise KGFormatError(f"pool path listed twice: {shown}")
        seen.add(path.key())
        return path, json_field(entry, "provenance", PROVENANCE)

    return read_items(rec, "paths", read_path)


write_pools = write_jsonl


def read_pools(source: IO[str], g: KnowledgeGraph, ids: Collection[str]) -> dict[str, CandidatePool]:
    return read_by_question(source, lambda rec: pool_from_record(rec, g), "id", ids)
