"""Pipeline orchestration as subcommands over a single JSON config.

Every stage reads and writes the documented JSONL artifacts under the
configured work directory, so stages rerun independently and reproduce their
outputs byte for byte given the same inputs and seeds.

Exit codes: 0 success, 2 configuration error (including an input file that
ingest cannot parse and a model that does not match the configured
encoder), 3 missing, stale or foreign upstream artifact, 4 LLM backend
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import kg as kgmod
from . import metrics, pool as poolmod, reorganize, refiner as refinemod
from .config import ConfigError, PipelineConfig, load_config
from .llm import (
    CompletionError,
    CompletionRequest,
    MockOracle,
    ReplayBackend,
    ReplayStore,
    remote_from_env,
)
from .retriever import (
    HashedBowEncoder,
    TrainConfig,
    TrainSample,
    entity_to_triple_scores,
    load_model,
    save_model,
    score_entities,
    score_triples,
    top_k,
    train_entity_scorer,
    train_triple_scorer,
)
from .retriever.subgraph import (
    ModelFormatError,
    RetrievedSubgraph,
    read_subgraphs,
    subgraph_to_record,
    write_subgraphs,
)
from .simulate import estimate_recovery_rounds, load_experiment, write_summary_json, write_trials_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_BACKEND = 4


class UpstreamArtifactError(Exception):
    """An upstream artifact that is absent, or that does not parse against the graph."""

    def __init__(self, path: Path, producing_stage: str, problem: str | None = None):
        self.path = path
        self.producing_stage = producing_stage
        super().__init__(
            f"missing artifact {path}; run `kgrag {producing_stage}` first"
            if problem is None
            else f"stale or foreign artifact {path}: {problem}; rerun `kgrag {producing_stage}`"
        )


def _require(path: Path, producing_stage: str) -> Path:
    if not path.exists():
        raise UpstreamArtifactError(path, producing_stage)
    return path


def _read(path: Path, producing_stage: str, reader, *args):
    """``reader(fh, *args)`` over an upstream artifact; exit 3 names the stage to rerun."""
    with _require(path, producing_stage).open(encoding="utf-8") as fh:
        try:
            return reader(fh, *args)
        except (kgmod.KGFormatError, json.JSONDecodeError) as exc:
            raise UpstreamArtifactError(path, producing_stage, str(exc)) from exc


def _parallel_map(fn, items, workers: int):
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))  # map preserves input order


# -- shared loading ------------------------------------------------------------


def _load_inputs(cfg: PipelineConfig) -> tuple[kgmod.KnowledgeGraph, list[kgmod.Question]]:
    g = _read(cfg.graph_artifact, "ingest", kgmod.load_kg)
    questions, unresolved = _read(cfg.questions_artifact, "ingest", kgmod.load_questions, g)
    for qid, labels in unresolved.items():
        logger.warning("question %s still has unresolved labels: %s", qid, labels)
    return g, questions


def _read_predictions(fh) -> list[metrics.Prediction]:
    records = (json.loads(line) for line in fh if line.strip())
    return [metrics.Prediction(str(rec["id"]), tuple(rec["answers"])) for rec in records]


def _answers_by_question_text(questions: list[kgmod.Question], g) -> dict[str, set[str]]:
    return {
        q.text: {g.entity_label(a) for a in q.answer_entities} for q in questions
    }


class _SamplingClient:
    """Applies the configured temperature/seed/max_tokens to every request."""

    def __init__(self, inner, temperature: float, seed: int, max_tokens: int):
        self._inner = inner
        self._temperature = temperature
        self._seed = seed
        self._max_tokens = max_tokens
        self.tag = inner.tag

    def complete(self, req: CompletionRequest):
        return self._inner.complete(
            CompletionRequest(
                system_text=req.system_text,
                user_text=req.user_text,
                temperature=self._temperature,
                seed=self._seed,
                max_tokens=self._max_tokens,
            )
        )


def _make_client(cfg: PipelineConfig, backend: str, questions, g):
    if backend == "mock":
        inner = MockOracle(_answers_by_question_text(questions, g))
    elif backend == "replay":
        if not cfg.replay_path:
            raise ConfigError(["paths.replay is required for the replay backend"])
        inner = ReplayBackend(ReplayStore(cfg.replay_path))
    elif backend == "remote":
        store = ReplayStore(cfg.replay_path) if cfg.replay_path else None
        inner = remote_from_env(store=store, max_inflight=cfg.llm.max_inflight)
    else:
        raise ConfigError([f"unknown llm backend {backend!r}"])
    return _SamplingClient(inner, cfg.llm.temperature, cfg.llm.seed, cfg.llm.max_tokens)


def _train_config(cfg: PipelineConfig) -> TrainConfig:
    return TrainConfig(
        seed=cfg.seed,
        epochs=cfg.training.epochs,
        learning_rate=cfg.training.learning_rate,
        hidden=cfg.training.hidden,
        activation=cfg.training.activation,
        text_dim=cfg.text_dim,
        dde_depth=cfg.dde_depth,
        dde_slots=cfg.dde_slots,
        pos_weight_cap=cfg.training.pos_weight_cap,
        recall_k=cfg.recall_k(),
        gnn_hidden=cfg.training.gnn_hidden,
        gnn_depth=cfg.training.gnn_depth,
    )


# -- stages --------------------------------------------------------------------


def cmd_ingest(cfg: PipelineConfig) -> int:
    problems = []
    if not Path(cfg.kg_path).exists():
        problems.append(f"paths.kg does not exist: {cfg.kg_path}")
    if not Path(cfg.questions_path).exists():
        problems.append(f"paths.questions does not exist: {cfg.questions_path}")
    if problems:
        raise ConfigError(problems)
    try:
        with open(cfg.kg_path, encoding="utf-8") as fh:
            g = kgmod.load_kg(fh, cfg.kg_format)
    except kgmod.KGFormatError as exc:
        raise ConfigError([f"paths.kg {cfg.kg_path}: {exc}"]) from exc
    try:
        with open(cfg.questions_path, encoding="utf-8") as fh:
            questions, unresolved = kgmod.load_questions(fh, g)
    except kgmod.KGFormatError as exc:
        raise ConfigError([f"paths.questions {cfg.questions_path}: {exc}"]) from exc
    Path(cfg.work_dir).mkdir(parents=True, exist_ok=True)
    with cfg.graph_artifact.open("w", encoding="utf-8") as fh:
        kgmod.to_tsv(g, fh)
    with cfg.questions_artifact.open("w", encoding="utf-8") as fh:
        for q in questions:
            record = {
                "id": q.id,
                "question": q.text,
                "question_entities": sorted(g.entity_label(e) for e in q.query_entities),
                "answer_entities": sorted(g.entity_label(e) for e in q.answer_entities),
                "scope": (
                    sorted(g.labels(g.triple(t)) for t in q.scope) if q.scope is not None else None
                ),
            }
            fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    for qid, labels in unresolved.items():
        print(f"warning: question {qid}: unresolved labels {labels}", file=sys.stderr)
    print(f"ingested {len(g)} triples, {len(questions)} questions -> {cfg.work_dir}")
    return EXIT_OK


def cmd_candidates(cfg: PipelineConfig) -> int:
    g, questions = _load_inputs(cfg)

    def build(q: kgmod.Question) -> dict:
        view = kgmod.working_graph(g, q)
        built = poolmod.build_pool(view, q, cfg.path_cap)
        return poolmod.pool_to_record(q.id, built, g)

    records = _parallel_map(build, questions, cfg.workers)
    with cfg.pool_artifact.open("w", encoding="utf-8") as fh:
        poolmod.write_pools(fh, records)
    print(f"candidate pools for {len(records)} questions -> {cfg.pool_artifact}")
    return EXIT_OK


def cmd_refine(cfg: PipelineConfig, limit: int | None = None, backend: str | None = None) -> int:
    g, questions = _load_inputs(cfg)
    pools = _read(cfg.pool_artifact, "candidates", poolmod.read_pools, g)
    client = _make_client(cfg, backend or cfg.llm.backend, questions, g)
    demos = (
        refinemod.load_refine_demos(cfg.refine_demos_path) if cfg.refine_demos_path else ()
    )
    selected = questions[:limit] if limit is not None else questions

    def run(q: kgmod.Question) -> dict | None:
        pool = pools.get(q.id)
        if pool is None or len(pool) == 0:
            logger.warning("question %s has no candidates; skipping refinement", q.id)
            return None
        sup = refinemod.refine(q, pool, g, client, demos=demos, limit=cfg.pool_limit)
        return refinemod.supervision_to_record(sup, g)

    records = [rec for rec in _parallel_map(run, selected, cfg.workers) if rec is not None]
    with cfg.supervision_artifact.open("w", encoding="utf-8") as fh:
        refinemod.write_supervision(fh, records)
    print(f"refined supervision for {len(records)} questions -> {cfg.supervision_artifact}")
    return EXIT_OK


def _weak_supervision(
    g: kgmod.KnowledgeGraph, q: kgmod.Question, cap: int
) -> set[kgmod.Triple]:
    view = kgmod.working_graph(g, q)
    triples: set[kgmod.Triple] = set()
    for path in poolmod.shortest_paths(view, q.query_entities, q.answer_entities, cap):
        triples.update(path.triples(g))
    return triples


def cmd_train(cfg: PipelineConfig, no_refine: bool = False) -> int:
    g, questions = _load_inputs(cfg)
    if no_refine:
        positives = {q.id: _weak_supervision(g, q, cfg.path_cap) for q in questions}
    else:
        supervision = _read(cfg.supervision_artifact, "refine", refinemod.read_supervision, g)
        positives = {qid: sup.positive_triples for qid, sup in supervision.items()}

    train_samples, val_samples = [], []
    val_ids = set(cfg.validation_ids)
    for q in questions:
        pos = positives.get(q.id, set())
        if not pos:
            logger.warning("question %s has no positive triples; skipped for training", q.id)
            continue
        sample = TrainSample(q, kgmod.working_graph(g, q), pos)
        (val_samples if q.id in val_ids else train_samples).append(sample)
    if not train_samples:
        raise ConfigError(["no trainable questions: every supervision set is empty"])

    tc = _train_config(cfg)
    encoder = HashedBowEncoder(cfg.text_dim)
    if cfg.retrieval_level == "triple":
        model = train_triple_scorer(train_samples, tc, val_samples or None, encoder)
    else:
        model = train_entity_scorer(train_samples, tc, val_samples or None, encoder)
    save_model(model, cfg.model_artifact)
    print(
        f"trained {cfg.retrieval_level} scorer on {len(train_samples)} questions "
        f"({tc.epochs} epochs) -> {cfg.model_artifact}"
    )
    return EXIT_OK


def cmd_retrieve(cfg: PipelineConfig) -> int:
    g, questions = _load_inputs(cfg)
    encoder = HashedBowEncoder(cfg.text_dim)
    model = load_model(_require(cfg.model_artifact, "train"), expected_encoder_tag=encoder.tag)
    k = cfg.top_k + (cfg.entity_k_bonus if cfg.retrieval_level == "entity" else 0)

    def run(q: kgmod.Question) -> dict:
        view = kgmod.working_graph(g, q)
        if cfg.retrieval_level == "triple":
            scored = score_triples(model, q, view, encoder)
            merged: dict[int, str] = {}
        else:
            entity_scores = score_entities(model, q, view, encoder)
            scored, merged = entity_to_triple_scores(entity_scores, view)
        sub = (
            top_k(scored, k, g, relation_overrides=merged)
            if scored
            else RetrievedSubgraph(entries=[], k=k)
        )
        return subgraph_to_record(q.id, sub)

    records = _parallel_map(run, questions, cfg.workers)
    with cfg.retrieval_artifact.open("w", encoding="utf-8") as fh:
        write_subgraphs(fh, records)
    print(f"retrieved top-{k} triples for {len(records)} questions -> {cfg.retrieval_artifact}")
    return EXIT_OK


def cmd_reorganize(cfg: PipelineConfig) -> int:
    g, questions = _load_inputs(cfg)
    subgraphs = _read(cfg.retrieval_artifact, "retrieve", read_subgraphs, g)
    labels = {e: g.entity_label(e) for e in range(len(g.entities))}

    def run(q: kgmod.Question) -> dict:
        sub = subgraphs.get(q.id)
        if sub is None:
            return reorganize.chains_to_record(q.id, [], labels)
        chains = reorganize.expand_chains(sub, set(q.query_entities), cfg.chain_length_limit)
        chains = reorganize.merge_multi_answer(chains)
        chains = reorganize.merge_multi_entity(chains, set(q.query_entities))
        return reorganize.chains_to_record(q.id, chains, labels)

    records = _parallel_map(run, questions, cfg.workers)
    with cfg.chains_artifact.open("w", encoding="utf-8") as fh:
        reorganize.write_chains(fh, records)
    print(f"evidence chains for {len(records)} questions -> {cfg.chains_artifact}")
    return EXIT_OK


def cmd_answer(
    cfg: PipelineConfig, llm: str | None = None, no_reorganize: bool = False
) -> int:
    g, questions = _load_inputs(cfg)
    client = _make_client(cfg, llm or cfg.llm.backend, questions, g)
    demos = reorganize.load_qa_demos(cfg.qa_demos_path) if cfg.qa_demos_path else ()
    if no_reorganize:
        subgraphs = _read(cfg.retrieval_artifact, "retrieve", read_subgraphs, g)
    else:
        chains_by_q = _read(cfg.chains_artifact, "reorganize", reorganize.read_chains)

    def run(q: kgmod.Question) -> dict:
        if no_reorganize:
            sub = subgraphs.get(q.id) or RetrievedSubgraph(entries=[], k=cfg.top_k)
            request = reorganize.build_flat_qa_prompt(
                q.text, sub, demos, cfg.llm.include_explanations
            )
        else:
            request = reorganize.build_qa_prompt(
                q.text, chains_by_q.get(q.id, []), demos, cfg.llm.include_explanations
            )
        result = client.complete(request)
        return {
            "id": q.id,
            "answers": metrics.extract_answers(result.text),
            "raw_text": result.text,
            "prompt_sha256": hashlib.sha256(request.user_text.encode("utf-8")).hexdigest(),
            "usage": result.token_usage,
        }

    records = _parallel_map(run, questions, cfg.workers)
    with cfg.answers_artifact.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"answers for {len(records)} questions -> {cfg.answers_artifact}")
    return EXIT_OK


def cmd_evaluate(cfg: PipelineConfig) -> int:
    g, questions = _load_inputs(cfg)
    gold = {q.id: {g.entity_label(a) for a in q.answer_entities} for q in questions}
    preds = _read(cfg.answers_artifact, "answer", _read_predictions)
    aliases = None
    if cfg.aliases_path:
        with open(cfg.aliases_path, encoding="utf-8") as fh:
            aliases = json.load(fh)
    report = metrics.evaluate(preds, gold, aliases)
    with cfg.report_artifact.open("w", encoding="utf-8") as json_fh, cfg.per_question_artifact.open(
        "w", encoding="utf-8", newline=""
    ) as csv_fh:
        metrics.write_report(report, json_fh, csv_fh)
    print(
        f"macro_f1={report.macro_f1:.4f} micro_f1={report.micro_f1:.4f} "
        f"hit={report.hit:.4f} hit@1={report.hit_at_1:.4f} -> {cfg.report_artifact}"
    )
    return EXIT_OK


def cmd_simulate(config_path: str, out_dir: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        inst, cfg, trials = load_experiment(fh)
    summary = estimate_recovery_rounds(inst, cfg, trials)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "trials.csv").open("w", encoding="utf-8", newline="") as fh:
        write_trials_csv(summary, fh)
    with (out / "summary.json").open("w", encoding="utf-8") as fh:
        write_summary_json(summary, inst, cfg, fh)
    print(
        f"{summary.recovered_trials}/{summary.trials} trials recovered, "
        f"mean rounds {summary.mean_rounds:.1f} -> {out}"
    )
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgrag", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--workers", type=int, default=None, help="per-question parallelism")
        return p

    stage("ingest", "validate and normalize the graph and question files")
    stage("candidates", "build candidate reasoning-path pools")
    p = stage("refine", "select supervision chains with the configured model")
    p.add_argument("--limit", type=int, default=None, help="refine only the first N questions")
    p.add_argument("--llm", choices=["mock", "replay", "remote"], default=None)
    p = stage("train", "train the retriever on cached supervision")
    p.add_argument(
        "--no-refine",
        action="store_true",
        help="train on weak shortest-path supervision instead of the refined cache",
    )
    stage("retrieve", "score triples and keep the top K per question")
    stage("reorganize", "expand and merge retrieved triples into evidence chains")
    p = stage("answer", "ask the configured model with evidence prompts")
    p.add_argument("--llm", choices=["mock", "replay", "remote"], default=None)
    p.add_argument(
        "--no-reorganize",
        action="store_true",
        help="prompt with the flat retrieved triple list instead of chains",
    )
    stage("evaluate", "score answers against gold and write the report")

    p = sub.add_parser("simulate", help="run the subset-search recovery experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out-dir", required=True, help="directory for trials.csv and summary.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out_dir)
        cfg = load_config(args.config)
        if args.workers is not None:
            cfg.workers = args.workers
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "candidates":
            return cmd_candidates(cfg)
        if args.command == "refine":
            return cmd_refine(cfg, limit=args.limit, backend=args.llm)
        if args.command == "train":
            return cmd_train(cfg, no_refine=args.no_refine)
        if args.command == "retrieve":
            return cmd_retrieve(cfg)
        if args.command == "reorganize":
            return cmd_reorganize(cfg)
        if args.command == "answer":
            return cmd_answer(cfg, llm=args.llm, no_reorganize=args.no_reorganize)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelFormatError as exc:
        print(f"model error: {exc}; rerun `kgrag train` with this config", file=sys.stderr)
        return EXIT_CONFIG
    except UpstreamArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except CompletionError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
