"""Independent brute-force oracles used to freeze expected values.

Everything here is written against the raw triple lists, not the package's
graph/index structures, so the checks stay independent of the code paths they
verify.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from itertools import combinations

import numpy as np

from kgrag.retriever.triple_scorer import weighted_bce_from_logits
from kgrag.simulate import count_reward


def hashed_bow(text: str, dim: int) -> np.ndarray:
    """One text's hashed bag-of-tokens, a token at a time: an md5 per token, ``+= 1.0``
    into its bucket, then division by ``np.linalg.norm`` unless the vector is zero."""
    vec = np.zeros(dim, dtype=np.float64)
    for token in re.findall(r"\w+", text.lower()):
        digest = hashlib.md5(token.encode("utf-8")).digest()
        vec[int.from_bytes(digest[:8], "big") % dim] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


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


def multi_entity_blocks(merged: list, chains: list, g) -> list[list[int]] | None:
    """A split of ``merged`` into blocks and the untouched chains of ``chains``, or None.

    A block is a run of two or more chains with pairwise-distinct sources whose
    targets are the intersection of their input targets; after the blocks come
    the input chains no block took, unchanged and in input order. Returns the
    positions of each block. Chains are matched to inputs by their triple ids.
    """
    inputs = {c.tid_sequence(): c for c in chains}

    def is_block(run: list) -> bool:
        common = set.intersection(*(set(inputs[c.tid_sequence()].targets) for c in run))
        return len({c.source(g) for c in run}) == len(run) and all(set(c.targets) == common for c in run)

    def split(lo: int) -> list[list[int]] | None:
        taken = {c.tid_sequence() for c in merged[:lo]}
        if merged[lo:] == [c for c in chains if c.tid_sequence() not in taken]:
            return []
        for hi in range(lo + 2, len(merged) + 1):
            if is_block(merged[lo:hi]) and (rest := split(hi)) is not None:
                return [list(range(lo, hi))] + rest
        return None

    return split(0)


def all_subsets(items: list[int], max_size: int | None = None):
    upper = len(items) if max_size is None else max_size
    for size in range(0, upper + 1):
        yield from (set(c) for c in combinations(items, size))


def reward_coverage(selected: set[int] | frozenset[int], inst) -> float:
    """Reward normalized by the oracle size: 1 exactly when selected == oracle.

    ``(|sel ∩ oracle| s0 − |sel \\ oracle| δ0) / (|oracle| s0)``; the empty
    selection scores 0 and all-noise selections go negative when δ0 > 0.
    """
    overlap = len(selected & inst.oracle_set)
    noise = len(selected) - overlap
    return (overlap * inst.s0 - noise * inst.delta0) / (inst.k * inst.s0)


def reward_draw(selected: set[int] | frozenset[int], inst) -> float:
    """Reward normalized by the draw size, in [-δ0/s0, 1]. Selection must be nonempty."""
    if not selected:
        raise ValueError("selected set must be nonempty")
    return count_reward(len(selected & inst.oracle_set), len(selected), inst)


def acceptance_occupancy(inst, threshold: float) -> float:
    """θ such that a draw is accepted iff its oracle count exceeds S·θ."""
    return (threshold * inst.s0 + inst.delta0) / (inst.s0 + inst.delta0)


def measure_acceptance_rate(inst, cfg, rounds: int, seed: int | None = None) -> float:
    """Empirical acceptance frequency over independent rounds (no stopping)."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    counts = rng.hypergeometric(inst.k, inst.universe_size - inst.k, cfg.subset_size, size=rounds)
    return int(np.count_nonzero(count_reward(counts, cfg.subset_size, inst) > cfg.threshold)) / rounds


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


# -- dense retriever layers ------------------------------------------------------
#
# The scorers project each entity and relation table once and gather per triple
# or edge; these build the per-triple and per-edge rows explicitly and scatter
# with np.add.at, as the scorers did before they were factored.


def triple_matrix(f) -> np.ndarray:
    """Rows ``[query | head text | relation text | tail text | DDE]`` of a feature bundle.

    The DDE block holds, per anchor slot, head-forward / head-backward /
    tail-forward / tail-backward one-hot codes.
    """
    n = len(f.view.tids)
    slots = f.dde.shape[1]
    codes = f.codes().reshape(len(f.dde), slots, f.dde_dim // slots)
    dde = np.concatenate([codes[f.view.head], codes[f.view.tail]], axis=2)
    return np.hstack(
        [
            np.tile(f.query, (n, 1)),
            f.view.entity_text[f.view.head],
            f.view.relation_text[f.view.relation],
            f.view.entity_text[f.view.tail],
            dde.reshape(n, 2 * f.dde_dim),
        ]
    )


def entity_matrix(f) -> np.ndarray:
    """Rows ``[query | entity text | DDE]`` of a feature bundle, one per entity of its view."""
    return np.hstack([np.tile(f.query, (len(f.dde), 1)), node_rows(f)])


def node_rows(f) -> np.ndarray:
    """The entity scorer's layer-0 node rows ``[entity text | DDE codes]``, one per entity."""
    return np.hstack([f.view.entity_text, f.codes()])


def dense_triple_loss_and_grad(model, X: np.ndarray, y: np.ndarray, pos_weight: float):
    """(logits, loss, grads) of a triple scorer's MLP over dense rows ``X``."""
    act = np.tanh if model.activation == "tanh" else lambda z: np.maximum(z, 0.0)
    n_hidden = len(model.hidden)
    layers = [(model.params[2 * i], model.params[2 * i + 1]) for i in range(n_hidden + 1)]
    inputs, outs = [], []
    h = X
    for i, (W, b) in enumerate(layers):
        z = h @ W + b
        inputs.append(h)
        h = act(z) if i < n_hidden else z
        outs.append((z, h))
    logits = h.ravel()
    loss, dz = weighted_bce_from_logits(logits, y, pos_weight)
    grads = [None] * len(model.params)
    grad = dz[:, None]
    for i in reversed(range(n_hidden + 1)):
        z, a = outs[i]
        if i < n_hidden:
            grad = grad * ((1.0 - a * a) if model.activation == "tanh" else (z > 0).astype(z.dtype))
        grads[2 * i] = inputs[i].T @ grad
        grads[2 * i + 1] = grad.sum(axis=0)
        grad = grad @ layers[i][0].T
    return logits, loss, grads


def dense_entity_loss_and_grad(model, f, y: np.ndarray, pos_weight: float):
    """(logits, loss, grads) of an entity scorer over a feature bundle, with
    concatenated per-edge message inputs and ``np.add.at`` scatters."""
    src, dst = f.view.head, f.view.tail
    R = f.view.relation_text[f.view.relation]
    recipients = np.concatenate([dst, src])
    n_nodes, n_edges = len(f.view.entity_ids), len(f.view.tids)
    degree = np.zeros(n_nodes)
    np.add.at(degree, recipients, 1.0)
    log_deg = np.log1p(degree)
    norm = float(log_deg.mean()) if n_nodes and log_deg.mean() > 0 else 1.0
    scale = (log_deg / norm)[:, None]
    denom = np.clip(degree, 1.0, None)[:, None]
    H = model.hidden

    h = entity_matrix(f)
    caches = []
    for layer in range(model.depth):
        Wf, bf, Wb, bb, Wu, bu = model.params[6 * layer : 6 * layer + 6]
        in_f = np.concatenate([h[src], R], axis=1)
        in_b = np.concatenate([h[dst], R], axis=1)
        mf, mb = np.tanh(in_f @ Wf + bf), np.tanh(in_b @ Wb + bb)
        total = np.zeros((n_nodes, H))
        np.add.at(total, recipients, np.vstack([mf, mb]))
        mean = total / denom
        u_in = np.concatenate([h, mean, total, mean * scale], axis=1)
        h_out = np.tanh(u_in @ Wu + bu)
        caches.append((h, in_f, in_b, mf, mb, u_in, h_out))
        h = h_out
    logits = (h @ model.params[-2]).ravel() + model.params[-1][0]
    loss, dz = weighted_bce_from_logits(logits, y, pos_weight)

    grads = [None] * len(model.params)
    grads[-2] = h.T @ dz[:, None]
    grads[-1] = np.array([dz.sum()])
    grad_h = dz[:, None] @ model.params[-2].T
    for layer in reversed(range(model.depth)):
        Wf, bf, Wb, bb, Wu, bu = model.params[6 * layer : 6 * layer + 6]
        h_in, in_f, in_b, mf, mb, u_in, h_out = caches[layer]
        d = h_in.shape[1]
        dzu = grad_h * (1.0 - h_out * h_out)
        grads[6 * layer + 4] = u_in.T @ dzu
        grads[6 * layer + 5] = dzu.sum(axis=0)
        g_u = dzu @ Wu.T
        g_mean = g_u[:, d : d + H] + g_u[:, d + 2 * H :] * scale
        g_sum = g_u[:, d + H : d + 2 * H] + g_mean / denom
        grad_m = g_sum[recipients]
        dzf = grad_m[:n_edges] * (1.0 - mf * mf)
        dzb = grad_m[n_edges:] * (1.0 - mb * mb)
        grads[6 * layer + 0] = in_f.T @ dzf
        grads[6 * layer + 1] = dzf.sum(axis=0)
        grads[6 * layer + 2] = in_b.T @ dzb
        grads[6 * layer + 3] = dzb.sum(axis=0)
        grad_h = g_u[:, :d].copy()
        np.add.at(grad_h, src, (dzf @ Wf.T)[:, :d])
        np.add.at(grad_h, dst, (dzb @ Wb.T)[:, :d])
    return logits, loss, grads


# -- entity scorer training step ------------------------------------------------------
#
# The entity scorer's forward and backward pass as they ran before its training step
# wrote messages and layer inputs into buffers kept across steps: every array is new.
# The buffered step must give the same bits.


def allocating_entity_forward(model, gt, caches: list | None = None) -> np.ndarray:
    """The logits; each layer's inputs and outputs are appended to ``caches`` when it is given."""
    m, rel_text, H = gt.view.messages, gt.view.relation_text, model.hidden
    b, h = gt.query, node_rows(gt)
    for layer in range(model.depth):
        Wf, bf, Wb, bb, Wu, bu = model.params[6 * layer : 6 * layer + 6]
        n, d = len(b), len(b) + h.shape[1]
        W_sent = np.hstack([Wf[:d], Wb[:d]])
        msg = (h @ W_sent[n:] + b @ W_sent[:n]).reshape(-1, H)[m.sender]
        msg += (rel_text @ np.hstack([Wf[d:], Wb[d:]]) + np.concatenate([bf, bb])).reshape(-1, H)[m.relation]
        np.tanh(msg, out=msg)
        total = m.by_recipient.sum(msg)
        mean = total / m.denom
        u_in = np.concatenate([h, mean, total, mean * m.scale], axis=1)
        h_out = np.tanh(u_in @ Wu[n:] + (b @ Wu[:n] + bu))
        if caches is not None:
            caches.append((b, h, W_sent, msg, u_in, h_out))
        b, h = b[:0], h_out
    w_out, b_out = model.params[-2], model.params[-1]
    return (h @ w_out).ravel() + b_out[0]


def allocating_entity_loss_and_grad(model, gt, y: np.ndarray, pos_weight: float):
    """(loss, grads) of one entity scorer training step, every array new."""
    caches: list = []
    loss, dz = weighted_bce_from_logits(allocating_entity_forward(model, gt, caches), y, pos_weight)
    grads = [None] * len(model.params)
    h_last = caches[-1][-1]
    w_out = model.params[-2]
    grads[-2] = h_last.T @ dz[:, None]
    grads[-1] = np.array([dz.sum()])
    grad_h = dz[:, None] @ w_out.T.reshape(1, -1)
    m, rel_t, H = gt.view.messages, gt.view.relation_text.T, model.hidden

    def shared_rows(b, h, grad):
        return np.vstack([np.outer(b, grad.sum(axis=0)), h.T @ grad])

    for layer in reversed(range(model.depth)):
        Wu = model.params[6 * layer + 4]
        b, h_in, W_sent, msg, u_in, h_out = caches[layer]
        n, d_h = len(b), h_in.shape[1]
        dzu = grad_h * (1.0 - h_out * h_out)
        base = 6 * layer
        grads[base + 4] = shared_rows(b, u_in, dzu)
        grads[base + 5] = dzu.sum(axis=0)
        g_mean, g_total, g_amp = np.split(dzu @ Wu[n + d_h :].T, 3, axis=1)
        g_sum_all = g_total + (g_mean + g_amp * m.scale) / m.denom
        dmsg = g_sum_all[m.recipient]
        msg *= msg
        np.subtract(1.0, msg, out=msg)
        dmsg *= msg
        d_sent = m.by_sender.sum(dmsg).reshape(-1, 2 * H)
        d_rel = m.by_relation.sum(dmsg).reshape(-1, 2 * H)
        g_sent, g_rel, g_bias = shared_rows(b, h_in, d_sent), rel_t @ d_rel, d_rel.sum(axis=0)
        grads[base + 0] = np.vstack([g_sent[:, :H], g_rel[:, :H]])
        grads[base + 1] = g_bias[:H]
        grads[base + 2] = np.vstack([g_sent[:, H:], g_rel[:, H:]])
        grads[base + 3] = g_bias[H:]
        if layer:
            grad_h = dzu @ Wu[:d_h].T + d_sent @ W_sent.T
    return loss, grads


# -- entity-level ranking ----------------------------------------------------------
#
# The loops the retriever ran before its triple scores and ranking became array
# arithmetic; the vectorised versions must give the same ids, bits and order.


def entity_to_triple_scores(entity_scores, g) -> tuple[list[tuple[int, float]], dict[int, str]]:
    """``p(h) + p(t)`` per (head, tail) pair of ``g``'s visible triples, at the pair's smallest
    triple id, in id order, with the pair's relation labels joined by " | " in load order."""
    p = dict(entity_scores)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for tid, tr in g.iter_triples():
        by_pair.setdefault((tr.head, tr.tail), []).append(tid)
    scored: list[tuple[int, float]] = []
    merged: dict[int, str] = {}
    for (h, t), tids in sorted(by_pair.items(), key=lambda kv: kv[1][0]):
        scored.append((tids[0], p.get(h, 0.0) + p.get(t, 0.0)))
        if len(tids) > 1:
            merged[tids[0]] = " | ".join(g.relation_label(g.triple(tid).relation) for tid in tids)
    return scored, merged


def top_k_order(scored: list[tuple[int, float]], k: int) -> list[tuple[int, float]]:
    """The k best ``(id, score)`` pairs by descending score, ties toward the smaller id."""
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))[:k]
