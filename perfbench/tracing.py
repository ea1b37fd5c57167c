"""In-memory spans and counts recorded around the calls the CLI makes into each layer.

The tracer replaces module attributes and class methods of ``kgrag`` with
wrappers that open a span, call the original and close the span. Nothing in
``kgrag`` itself changes; :meth:`Tracer.restore` puts every original back.

A span's self time is its duration minus the part of it that its child spans
cover. Every wrapped call runs inside a stage span, so the self times of one
stage's spans add up to the stage's wall time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    question: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, question: str | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, question)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | None,
        count: Callable[["Tracer", tuple, dict, object], None] | None = None,
        failures: str | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced version.

        ``name`` is the span name (``None`` records counts only). ``count``
        receives the call's arguments and result; ``failures`` names a counter
        raised by one for each call that ends in an exception.
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            try:
                if name is None:
                    result = original(*args, **kwargs)
                else:
                    result = tracer.call(name, original, args, kwargs, _question_id(args, kwargs))
            except Exception:
                if failures:
                    tracer.counts[failures] += 1
                raise
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write_jsonl(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
                fh.write(
                    json.dumps(
                        {
                            "i": i,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "question": span.question,
                            "self": own,
                        }
                    )
                    + "\n"
                )


def _question_id(args: tuple, kwargs: dict) -> str | None:
    from kgrag.kg import Question

    for value in (*args, *kwargs.values()):
        if isinstance(value, Question):
            return value.id
    return None


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((span.end - span.start) - covered)
    return out


def subtree_self_sums(spans: list[Span]) -> dict[int, float]:
    """For each root span, the sum of self times over its whole subtree."""
    own = self_times(spans)
    root_of: list[int] = []
    for i, span in enumerate(spans):
        root_of.append(i if span.parent is None else root_of[span.parent])
    sums: dict[int, float] = defaultdict(float)
    for i, value in enumerate(own):
        sums[root_of[i]] += value
    return dict(sums)


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


# -- the layers ---------------------------------------------------------------


def _bump(key: str, amount: Callable[[tuple, dict, object], float] = lambda a, k, r: 1):
    def count(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
        tracer.counts[key] += amount(args, kwargs, result)

    return count


def _count_cap_hits(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    from kgrag.pool import DEFAULT_PATH_CAP

    g = args[0] if args else kwargs["g"]
    cap = args[3] if len(args) > 3 else kwargs.get("cap", DEFAULT_PATH_CAP)
    per_pair = Counter((path.source(g), path.terminal(g)) for path in result)
    tracer.counts["pool.cap_hits"] += sum(1 for n in per_pair.values() if n >= cap)


def _count_dde(tracer: Tracer, args: tuple, kwargs: dict, codes) -> None:
    g = args[0] if args else kwargs["g"]
    in_view = {e for _, tr in g.iter_triples() for e in (tr.head, tr.tail)}
    tracer.counts["retriever.dde_codes_built"] += len(codes)
    tracer.counts["retriever.dde_codes_used"] += sum(1 for e in codes if e in in_view)


def _count_completion(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.counts["llm.calls"] += 1
    tracer.counts["llm.prompt_tokens"] += result.prompt_tokens
    tracer.counts["llm.completion_tokens"] += result.completion_tokens


def _count_selection(tracer: Tracer, args: tuple, kwargs: dict, picks) -> None:
    tracer.counts["refiner.selected" if picks else "refiner.fallbacks"] += 1


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions and methods the CLI stages call, one span name per layer."""
    from kgrag import cli, kg, llm, metrics, pool, refiner, reorganize, simulate
    from kgrag.retriever import entity_scorer, features, triple_scorer

    io = "cli.artifact_io"
    plan = [
        (kg, "load_kg", "kg.load", _bump("kg.graph_loads")),
        (
            kg, "load_questions", "kg.questions",
            _bump("kg.scope_triples_resolved", lambda a, k, r: sum(len(q.scope or ()) for q in r[0])),
        ),
        (kg, "working_graph", "kg.view", _bump("kg.views")),
        (pool, "build_pool", "pool.build", _bump("pool.paths", lambda a, k, r: len(r))),
        (pool, "shortest_paths", "pool.build", _count_cap_hits),
        (refiner, "refine", "refiner.self", _bump("refiner.calls")),
        (features, "compute_dde", "retriever.dde", _count_dde),
        (features.TripleFeatureBuilder, "__init__", "retriever.features", None),
        (features.TripleFeatureBuilder, "matrix", "retriever.features", None),
        (entity_scorer, "prepare_graph_tensors", "retriever.features", None),
        (triple_scorer.TripleScorer, "loss_and_grad", "retriever.fwd_bwd", _bump("retriever.fwd_bwd_calls")),
        (entity_scorer.EntityScorer, "loss_and_grad", "retriever.fwd_bwd", _bump("retriever.fwd_bwd_calls")),
        (triple_scorer.TripleScorer, "scores", "retriever.forward", None),
        (entity_scorer.EntityScorer, "scores", "retriever.forward", None),
        (cli, "top_k", "retriever.top_k", None),
        (cli, "entity_to_triple_scores", "retriever.top_k", None),
        (
            cli, "save_model", "retriever.model_io",
            _bump("retriever.model_bytes", lambda a, k, r: Path(a[1]).stat().st_size),
        ),
        (cli, "load_model", "retriever.model_io", None),
        (reorganize, "expand_chains", "reorganize.expand", None),
        (reorganize, "merge_multi_answer", "reorganize.merge", None),
        (reorganize, "merge_multi_entity", "reorganize.merge", _bump("reorganize.chains", lambda a, k, r: len(r))),
        (reorganize, "build_qa_prompt", "reorganize.prompt", None),
        (reorganize, "build_flat_qa_prompt", "reorganize.prompt", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (metrics, "extract_answers", "metrics.extract", None),
        (simulate, "run_subset_search", "simulate.search", _bump("simulate.rounds", lambda a, k, r: r.rounds_executed)),
        (kg, "to_tsv", io, None),
        (pool, "pool_to_record", io, None),
        (pool, "write_pools", io, None),
        (pool, "read_pools", io, None),
        (refiner, "supervision_to_record", io, None),
        (refiner, "write_supervision", io, None),
        (refiner, "read_supervision", io, None),
        (cli, "subgraph_to_record", io, None),
        (cli, "write_subgraphs", io, None),
        (cli, "read_subgraphs", io, None),
        (reorganize, "chains_to_record", io, None),
        (reorganize, "write_chains", io, None),
        (reorganize, "read_chains", io, None),
        (metrics, "write_report", io, None),
    ]
    for owner, attr, name, count in plan:
        tracer.wrap(owner, attr, name, count)
    tracer.wrap(llm.MockOracle, "complete", "llm.complete", _count_completion, failures="llm.failures")
    # an unparseable or empty selection makes the refiner fall back to weak supervision
    tracer.wrap(refiner, "parse_selection", None, _count_selection, failures="refiner.fallbacks")
