"""Independent brute-force oracles used to freeze expected values.

Everything here is written against the raw triple lists, not the package's
graph/index structures, so the checks stay independent of the code paths they
verify.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np


def undirected_distance(edges: list[tuple[int, int, int]], start: int) -> dict[int, int]:
    """BFS hop distance treating (tid, head, tail) edges as undirected."""
    adjacency: dict[int, set[int]] = {}
    for _, h, t in edges:
        adjacency.setdefault(h, set()).add(t)
        adjacency.setdefault(t, set()).add(h)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def enumerate_shortest_paths(
    edges: list[tuple[int, int, int]], source: int, target: int
) -> set[tuple[tuple[int, ...], tuple[str, ...]]]:
    """All minimum-length vertex-simple undirected paths as (tids, orientations).

    Pure recursive enumeration with depth pruning at the BFS distance.
    """
    if source == target:
        return set()
    dist = undirected_distance(edges, source)
    if target not in dist:
        return set()
    limit = dist[target]
    slots: dict[int, list[tuple[int, int, str]]] = {}
    for tid, h, t in edges:
        slots.setdefault(h, []).append((tid, t, "f"))
        if h != t:
            slots.setdefault(t, []).append((tid, h, "b"))
    found: set[tuple[tuple[int, ...], tuple[str, ...]]] = set()

    def walk(node: int, visited: frozenset[int], tids: tuple[int, ...], orients: tuple[str, ...]):
        if node == target:
            if len(tids) == limit:
                found.add((tids, orients))
            return
        if len(tids) >= limit:
            return
        for tid, other, orient in slots.get(node, ()):
            if other in visited:
                continue
            walk(other, visited | {other}, tids + (tid,), orients + (orient,))

    walk(source, frozenset([source]), (), ())
    return found


def directed_distance(
    edges: list[tuple[int, int, int]], anchors: set[int], reverse: bool
) -> dict[int, int]:
    """BFS hop distance following (or reversing) edge direction from an anchor set."""
    adjacency: dict[int, set[int]] = {}
    for _, h, t in edges:
        if reverse:
            adjacency.setdefault(t, set()).add(h)
        else:
            adjacency.setdefault(h, set()).add(t)
    dist = {a: 0 for a in anchors}
    queue = deque(sorted(anchors))
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def enumerate_chains(
    entries: list[tuple[int, int, int]],
    query_entities: set[int],
    max_len: int | None,
) -> set[tuple[int, tuple[int, ...], tuple[str, ...]]]:
    """All maximal anchored non-reusing chains as (source, tids, orientations).

    Anchors are entries touching a query entity; extensions come from the
    non-anchored remainder, matching head-to-tail in the anchor's direction.
    """
    anchored = [e for e in entries if e[1] in query_entities or e[2] in query_entities]
    rest = [e for e in entries if e not in anchored]
    result: set[tuple[int, tuple[int, ...], tuple[str, ...]]] = set()

    def extensions(frontier: int, used: frozenset[int], forward: bool):
        for tid, h, t in rest:
            if tid in used:
                continue
            if forward and h == frontier:
                yield tid, t
            elif not forward and t == frontier:
                yield tid, h

    def walk(source, frontier, used, tids, forward):
        exts = list(extensions(frontier, used, forward))
        if not exts or (max_len is not None and len(tids) >= max_len):
            orient = "f" if forward else "b"
            result.add((source, tids, tuple(orient for _ in tids)))
            return
        for tid, nxt in exts:
            walk(source, nxt, used | {tid}, tids + (tid,), forward)

    for tid, h, t in anchored:
        if h in query_entities:
            walk(h, t, frozenset([tid]), (tid,), True)
        if t in query_entities and t != h:
            walk(t, h, frozenset([tid]), (tid,), False)
    return result


def count_relation_classes(
    paths: list[tuple[str, int, tuple[tuple[int, str], ...]]]
) -> int:
    """Distinct (provenance, source, relation-path) classes by direct grouping."""
    return len({(prov, src, rels) for prov, src, rels in paths})


def all_subsets(items: list[int], max_size: int | None = None):
    upper = len(items) if max_size is None else max_size
    for size in range(0, upper + 1):
        yield from (set(c) for c in combinations(items, size))


def per_draw_subset_search(
    n: int,
    oracle: frozenset[int],
    s0: float,
    d0: float,
    size: int,
    threshold: float,
    max_rounds: int,
    seed,
) -> tuple[int, int, bool, list[float], set[int]]:
    """Reference subset search that draws every round's S distinct items with ``rng.choice``.

    Returns (rounds executed, accepted rounds, recovered, per-round rewards,
    union of the accepted draws).
    """
    rng = np.random.default_rng(seed)
    identified: set[int] = set()
    rewards: list[float] = []
    accepted = 0
    for rounds in range(1, max_rounds + 1):
        draw = {int(i) for i in rng.choice(n, size=size, replace=False)}
        overlap = len(draw & oracle)
        rewards.append((overlap * s0 - (size - overlap) * d0) / (size * s0))
        if rewards[-1] > threshold:
            accepted += 1
            identified |= draw
            if oracle <= identified:
                return rounds, accepted, True, rewards, identified
    return max_rounds, accepted, False, rewards, identified
