"""Pipeline orchestration as subcommands over a single JSON config.

Every stage reads and writes the documented JSONL artifacts under the
configured work directory, so stages rerun independently and reproduce their
outputs byte for byte given the same inputs and seeds.

Exit codes: 0 success, 2 configuration error, 3 missing, stale or foreign
upstream artifact (the message names the stage to rerun), 4 LLM backend
failure. README.md lists the failures behind each code.

``ingest`` writes the graph and the questions twice: ``graph.tsv`` and ``questions.jsonl``
for people and tools, and ``graph.json`` and ``questions.compiled.jsonl``, the compiled forms
the later stages load. The header of ``questions.compiled.jsonl`` is the one record of what
``ingest`` wrote: it holds the digest of each of its other three files. Each stage reads only
the work-directory files ``INPUTS`` gives it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import kg as kgmod
from . import metrics, pool as poolmod, reorganize, refiner as refinemod
from .config import ConfigError, LLMSettings, PipelineConfig, json_field, load_config, read_json
from .llm import (
    CompletionError,
    CompletionRequest,
    MockOracle,
    ReplayBackend,
    ReplayStore,
    remote_from_env,
)
from .retriever import (
    SCORERS,
    HashedBowEncoder,
    ModelFormatError,
    TrainSample,
    ViewTables,
    entity_to_triple_scores,
    fit,
    load_model,
    save_model,
    top_k,
)
from .retriever.subgraph import read_subgraphs, subgraph_to_record, write_subgraphs
from .simulate import estimate_recovery_rounds, load_experiment, write_summary_json, write_trials_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_BACKEND = 4


OUTPUTS = {
    "ingest": ("graph.tsv", "graph.json", "questions.jsonl", "questions.compiled.jsonl"),
    "candidates": ("pool.jsonl",),
    "refine": ("supervision.jsonl",),
    "train": ("model.json",),
    "retrieve": ("retrieval.jsonl",),
    "reorganize": ("chains.jsonl",),
    "answer": ("answers.jsonl",),
    "evaluate": ("report.json", "per_question.csv"),
}
"""The work-directory files each stage writes, in pipeline order."""
PRODUCER = {name: stage for stage, names in OUTPUTS.items() for name in names}
_INGESTED = OUTPUTS["ingest"]  # the compiled graph and questions, and the files they are checked against
_PINNED = tuple(name for name in _INGESTED if name != "questions.compiled.jsonl")  # by its header's digests
INPUTS = {
    "ingest": (),
    "candidates": _INGESTED,
    "refine": (*_INGESTED, "pool.jsonl"),
    "train": (*_INGESTED, "supervision.jsonl"),
    "retrieve": (*_INGESTED, "model.json"),
    "reorganize": (*_INGESTED, "retrieval.jsonl"),
    "answer": (*_INGESTED, "chains.jsonl", "retrieval.jsonl"),
    "evaluate": ("questions.jsonl", "questions.compiled.jsonl", "answers.jsonl"),
}
"""The work-directory files each stage may read, whichever its flags; it opens no other."""


class UpstreamArtifactError(Exception):
    """The work-directory file ``name`` is absent, or does not parse against the graph."""

    def __init__(self, cfg: PipelineConfig, name: str, problem: str | None = None):
        path, stage = cfg.artifact(name), PRODUCER[name]
        super().__init__(
            f"missing artifact {path}; run `kgrag {stage}` first"
            if problem is None
            else f"stale or foreign artifact {path}: {problem}; rerun `kgrag {stage}`"
        )


def _require(cfg: PipelineConfig, name: str) -> Path:
    path = cfg.artifact(name)
    if not path.exists():
        raise UpstreamArtifactError(cfg, name)
    return path


def _read(cfg: PipelineConfig, name: str, reader, *args, data: bytes | None = None):
    """``reader(fh, *args)`` over the upstream file ``name``, or over ``data`` when its bytes were
    already read; exit 3 names the stage to rerun."""
    with io.BytesIO(data) if data is not None else _require(cfg, name).open("rb") as fh:
        try:
            return reader(fh, *args)
        except kgmod.KGFormatError as exc:
            raise UpstreamArtifactError(cfg, name, str(exc)) from exc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _per_question(cfg: PipelineConfig, stage: str, questions, run, write, what: str) -> int:
    """``run(q)`` for each question, in question order on ``cfg.workers`` threads; the records
    that are not None go through ``write`` to the stage's one output, and a line reports them."""
    if cfg.workers <= 1:
        results = map(run, questions)
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run, questions))  # map keeps question order
    records = [rec for rec in results if rec is not None]
    (name,) = OUTPUTS[stage]
    with kgmod.published(cfg.artifact(name)) as fh:
        write(fh, records)
    print(f"{what} for {len(records)} questions -> {cfg.artifact(name)}")
    return EXIT_OK


# -- shared loading ------------------------------------------------------------


def _load(
    cfg: PipelineConfig, stage: str
) -> tuple[kgmod.KnowledgeGraph | None, list[kgmod.Question], dict[str, frozenset[str]]]:
    """The graph and questions compiled at ingest, as far as ``INPUTS[stage]`` names them, and
    the gold answer labels by question id. Each file of ``_PINNED`` that the stage reads is
    hashed and compared with the digest in the compiled questions' header, after ``graph.json``
    has passed its own reader; a missing, changed or malformed file exits 3. ``graph.json`` is
    read once, so the bytes parsed are the bytes hashed, whatever an ``ingest`` running meanwhile
    writes. Without ``graph.json`` the graph is None and the questions' ids are unchecked."""
    inputs = INPUTS[stage]
    pinned = {name: _require(cfg, name).read_bytes() for name in _PINNED if name in inputs}
    sha256 = {name: hashlib.sha256(data).hexdigest() for name, data in pinned.items()}
    graph = pinned.get("graph.json")
    g = None if graph is None else _read(cfg, "graph.json", kgmod.load_kg, "compiled", data=graph)
    questions, gold = _read(cfg, "questions.compiled.jsonl", kgmod.load_compiled_questions, sha256, g)
    return g, questions, gold


class _SamplingClient:
    """Applies the configured temperature/seed/max_tokens to every request."""

    def __init__(self, inner, llm: LLMSettings):
        self._inner = inner
        self._sampling = {"temperature": llm.temperature, "seed": llm.seed, "max_tokens": llm.max_tokens}
        self.tag = inner.tag

    def complete(self, req: CompletionRequest):
        return self._inner.complete(dataclasses.replace(req, **self._sampling))


def _make_client(cfg: PipelineConfig, backend: str, questions, gold):
    if backend == "mock":
        inner = MockOracle({q.text: gold[q.id] for q in questions})
    else:
        if backend == "replay" and not cfg.paths.replay:
            raise ConfigError(["paths.replay is required for the replay backend"])
        try:
            store = ReplayStore(cfg.paths.replay) if cfg.paths.replay else None
        except kgmod.KGFormatError as exc:
            raise ConfigError([f"paths.replay {cfg.paths.replay} is unreadable: {exc}"]) from exc
        if backend == "replay":
            inner = ReplayBackend(store)
        else:
            try:
                inner = remote_from_env(store=store, max_inflight=cfg.llm.max_inflight)
            except ValueError as exc:
                raise ConfigError([str(exc)]) from exc
    return _SamplingClient(inner, cfg.llm)


# -- stages --------------------------------------------------------------------


def cmd_ingest(cfg: PipelineConfig) -> int:
    problems = []
    if not Path(cfg.paths.kg).exists():
        problems.append(f"paths.kg does not exist: {cfg.paths.kg}")
    if not Path(cfg.paths.questions).exists():
        problems.append(f"paths.questions does not exist: {cfg.paths.questions}")
    if problems:
        raise ConfigError(problems)
    try:
        with open(cfg.paths.kg, "rb") as fh:
            g = kgmod.load_kg(fh, cfg.kg_format)
    except kgmod.KGFormatError as exc:
        raise ConfigError([f"paths.kg {cfg.paths.kg}: {exc}"]) from exc
    try:
        with open(cfg.paths.questions, "rb") as fh:
            questions, unresolved = kgmod.load_questions(fh, g)
    except kgmod.KGFormatError as exc:
        raise ConfigError([f"paths.questions {cfg.paths.questions}: {exc}"]) from exc
    records = [
        {
            "id": q.id,
            "question": q.text,
            "question_entities": sorted(g.entity_label(e) for e in q.query_entities),
            "answer_entities": sorted(g.entity_label(e) for e in q.answer_entities),
            "scope": sorted(g.triple_labels(q.scope)) if q.scope is not None else None,
        }
        for q in questions
    ]
    with kgmod.published(cfg.artifact("graph.tsv")) as fh:
        kgmod.to_tsv(g, fh)
    with kgmod.published(cfg.artifact("graph.json")) as fh:
        kgmod.to_compiled(g, fh)
    with kgmod.published(cfg.artifact("questions.jsonl")) as fh:
        kgmod.write_jsonl(fh, records)
    sha256 = {name: _sha256(cfg.artifact(name)) for name in _PINNED}
    with kgmod.published(cfg.artifact("questions.compiled.jsonl")) as fh:
        kgmod.to_compiled_questions(questions, g, fh, sha256)
    for qid, labels in unresolved.items():
        print(f"warning: question {qid}: unresolved labels {labels}", file=sys.stderr)
    print(f"ingested {len(g)} triples, {len(questions)} questions -> {cfg.paths.work_dir}")
    return EXIT_OK


def cmd_candidates(cfg: PipelineConfig) -> int:
    g, questions, _ = _load(cfg, "candidates")

    def build(q: kgmod.Question) -> dict:
        view = kgmod.working_graph(g, q)
        built = poolmod.build_pool(view, q, cfg.path_cap)
        return poolmod.pool_to_record(q.id, built, g)

    return _per_question(cfg, "candidates", questions, build, poolmod.write_pools, "candidate pools")


def cmd_refine(cfg: PipelineConfig, limit: int | None = None, llm: str | None = None) -> int:
    g, questions, gold = _load(cfg, "refine")
    pools = _read(cfg, "pool.jsonl", poolmod.read_pools, g, [q.id for q in questions])
    client = _make_client(cfg, llm or cfg.llm.backend, questions, gold)
    demos = (
        refinemod.load_refine_demos(cfg.paths.refine_demos) if cfg.paths.refine_demos else ()
    )
    selected = questions[:limit]  # all of them when limit is None

    def run(q: kgmod.Question) -> dict | None:
        pool = pools[q.id]
        if len(pool) == 0:
            logger.warning("question %s has no candidates; skipping refinement", q.id)
            return None
        sup = refinemod.refine(q, pool, g, client, demos=demos, limit=cfg.pool_limit)
        return refinemod.supervision_to_record(q.id, sup, g)

    return _per_question(cfg, "refine", selected, run, refinemod.write_supervision, "refined supervision")


def _weak_supervision(g: kgmod.KnowledgeGraph, q: kgmod.Question, cap: int) -> set[int]:
    paths = poolmod.shortest_paths(kgmod.working_graph(g, q), q.query_entities, q.answer_entities, cap)
    return {tid for path in paths for tid in path.triple_ids}


def cmd_train(cfg: PipelineConfig, no_refine: bool = False) -> int:
    g, questions, _ = _load(cfg, "train")
    ids = [q.id for q in questions]
    val_ids = set(cfg.validation_ids)
    unknown = sorted(val_ids - set(ids))
    if unknown:
        raise ConfigError([f"validation_ids: {qid!r} is not a question" for qid in unknown])
    if no_refine:
        positives = {q.id: _weak_supervision(g, q, cfg.path_cap) for q in questions}
    else:
        supervision = _read(cfg, "supervision.jsonl", refinemod.read_supervision, g, ids)
        positives = dict.fromkeys(ids, frozenset())
        positives.update((qid, sup.positive_triples) for qid, sup in supervision.items())

    train_samples, val_samples = [], []
    for q in questions:
        pos = positives[q.id]
        if not pos:
            logger.warning("question %s has no positive triples; skipped for training", q.id)
            continue
        view = kgmod.working_graph(g, q)
        outside = sorted(g.triple_labels(pos.difference(view.triple_ids)))
        if outside:  # weak supervision comes from the view, so only refined supervision can
            raise UpstreamArtifactError(
                cfg, "supervision.jsonl",
                f"question {q.id}: supervision triple {' '.join(outside[0])} is outside its scope",
            )
        sample = TrainSample(q, view, pos)
        (val_samples if q.id in val_ids else train_samples).append(sample)
    if val_samples and not train_samples:
        raise ConfigError(["no trainable questions: validation_ids leaves no question to train on"])
    if not train_samples:
        raise ConfigError(["no trainable questions: every supervision set is empty"])

    model = fit(SCORERS[cfg.retrieval_level], train_samples, cfg, val_samples or None)
    save_model(model, cfg.artifact("model.json"))
    print(
        f"trained {cfg.retrieval_level} scorer on {len(train_samples)} questions "
        f"({cfg.training.epochs} epochs) -> {cfg.artifact('model.json')}"
    )
    return EXIT_OK


def cmd_retrieve(cfg: PipelineConfig) -> int:
    g, questions, _ = _load(cfg, "retrieve")
    try:
        model = load_model(
            _require(cfg, "model.json"), SCORERS[cfg.retrieval_level], HashedBowEncoder(cfg.text_dim).tag
        )
    except kgmod.KGFormatError as exc:
        raise UpstreamArtifactError(cfg, "model.json", str(exc)) from exc
    for setting in ("dde_depth", "dde_slots"):
        trained, wanted = getattr(model, setting), getattr(cfg, setting)
        if trained != wanted:
            raise ModelFormatError(f"{setting} mismatch: model has {trained}, config has {wanted}")
    # an entity scorer ranks triples by the scores of their ends, with parallel relations merged
    by_entity = cfg.retrieval_level == "entity"
    k = cfg.top_k + (cfg.entity_k_bonus if by_entity else 0)

    def run(q: kgmod.Question) -> dict:
        view = kgmod.working_graph(g, q)
        scored, merged = model.score(q, view), {}
        if by_entity:
            scored, merged = entity_to_triple_scores(scored, ViewTables.of(view, model.encoder))
        return subgraph_to_record(q.id, top_k(scored, k, merged), g)

    return _per_question(cfg, "retrieve", questions, run, write_subgraphs, f"retrieved top-{k} triples")


def cmd_reorganize(cfg: PipelineConfig) -> int:
    g, questions, _ = _load(cfg, "reorganize")
    subgraphs = _read(cfg, "retrieval.jsonl", read_subgraphs, g, [q.id for q in questions])

    def run(q: kgmod.Question) -> dict:
        chains = reorganize.expand_chains(subgraphs[q.id], set(q.query_entities), g, cfg.chain_length_limit)
        chains = reorganize.merge_multi_answer(chains, g)
        chains = reorganize.merge_multi_entity(chains, set(q.query_entities), g)
        return reorganize.chains_to_record(q.id, chains, g)

    return _per_question(cfg, "reorganize", questions, run, reorganize.write_chains, "evidence chains")


def cmd_answer(
    cfg: PipelineConfig, llm: str | None = None, no_reorganize: bool = False
) -> int:
    g, questions, gold = _load(cfg, "answer")
    client = _make_client(cfg, llm or cfg.llm.backend, questions, gold)
    demos = reorganize.load_qa_demos(cfg.paths.qa_demos) if cfg.paths.qa_demos else ()
    ids = [q.id for q in questions]
    if no_reorganize:
        evidence = _read(cfg, "retrieval.jsonl", read_subgraphs, g, ids)
        build_prompt = reorganize.build_flat_qa_prompt
    else:
        evidence = _read(cfg, "chains.jsonl", reorganize.read_chains, g, ids)
        build_prompt = reorganize.build_qa_prompt

    def run(q: kgmod.Question) -> dict:
        request = build_prompt(q.text, evidence[q.id], g, demos, cfg.llm.include_explanations)
        result = client.complete(request)
        return {
            "id": q.id,
            "answers": metrics.extract_answers(result.text),
            "raw_text": result.text,
            "prompt_sha256": hashlib.sha256(request.user_text.encode("utf-8")).hexdigest(),
            "usage": result.token_usage,
        }

    return _per_question(cfg, "answer", questions, run, kgmod.write_jsonl, "answers")


def cmd_evaluate(cfg: PipelineConfig) -> int:
    _, _, gold = _load(cfg, "evaluate")
    answers = _read(
        cfg, "answers.jsonl", kgmod.read_by_question,
        lambda rec: json_field(rec, "answers", tuple[str, ...]), "id", gold,
    )
    preds = [metrics.Prediction(qid, predicted) for qid, predicted in answers.items()]
    aliases = None
    if cfg.paths.aliases:
        aliases = read_json(
            cfg.paths.aliases, "paths.aliases", lambda raw: {k: json_field(raw, k, str) for k in raw}
        )
    report = metrics.evaluate(preds, gold, aliases)
    with kgmod.published(cfg.artifact("report.json")) as json_fh:
        with kgmod.published(cfg.artifact("per_question.csv")) as csv_fh:
            metrics.write_report(report, json_fh, csv_fh)
    print(
        f"macro_f1={report.macro_f1:.4f} micro_f1={report.micro_f1:.4f} "
        f"hit={report.hit:.4f} hit@1={report.hit_at_1:.4f} -> {cfg.artifact('report.json')}"
    )
    return EXIT_OK


def cmd_simulate(config_path: str, out_dir: str) -> int:
    inst, cfg, trials = load_experiment(config_path)
    summary = estimate_recovery_rounds(inst, cfg, trials)
    out = Path(out_dir)
    with kgmod.published(out / "trials.csv") as csv_fh, kgmod.published(out / "summary.json") as json_fh:
        write_trials_csv(summary, csv_fh)  # neither file is replaced unless both are written
        write_summary_json(summary, inst, cfg, json_fh)
    print(
        f"{summary.recovered_trials}/{summary.trials} trials recovered, "
        f"mean rounds {summary.mean_rounds:.1f} -> {out}"
    )
    return EXIT_OK


# -- entry point -----------------------------------------------------------------

STAGES = {
    "ingest": (cmd_ingest, "validate and normalize the graph and question files"),
    "candidates": (cmd_candidates, "build candidate reasoning-path pools"),
    "refine": (cmd_refine, "select supervision chains with the configured model"),
    "train": (cmd_train, "train the retriever on cached supervision"),
    "retrieve": (cmd_retrieve, "score triples and keep the top K per question"),
    "reorganize": (cmd_reorganize, "expand and merge retrieved triples into evidence chains"),
    "answer": (cmd_answer, "ask the configured model with evidence prompts"),
    "evaluate": (cmd_evaluate, "score answers against gold and write the report"),
}
"""Each stage's command, called with the config and its own flags by name, and its help."""
PER_QUESTION = ("candidates", "refine", "retrieve", "reorganize", "answer")  # the stages with --workers


@functools.cache  # one parser per process: building it costs more than a small stage
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgrag", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    stage = {}
    for name, (_, help_text) in STAGES.items():
        p = stage[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        if name in PER_QUESTION:
            p.add_argument("--workers", type=int, default=None, help="per-question parallelism")
    stage["refine"].add_argument("--limit", type=int, default=None, help="refine only the first N questions")
    for name in ("refine", "answer"):
        stage[name].add_argument("--llm", choices=["mock", "replay", "remote"], default=None)
    stage["train"].add_argument(
        "--no-refine",
        action="store_true",
        help="train on weak shortest-path supervision instead of the refined cache",
    )
    stage["answer"].add_argument(
        "--no-reorganize",
        action="store_true",
        help="prompt with the flat retrieved triple list instead of chains",
    )

    p = sub.add_parser("simulate", help="run the subset-search recovery experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out-dir", required=True, help="directory for trials.csv and summary.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    logging.basicConfig(
        level=logging.DEBUG if args.pop("verbose") else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    command = args.pop("command")
    try:
        if command == "simulate":
            return cmd_simulate(args["config"], args["out_dir"])
        problems = [
            f"--{flag} must be >= {low}, got {value}"
            for flag, low in (("workers", 1), ("limit", 0))
            if (value := args.get(flag)) is not None and value < low
        ]
        if problems:
            raise ConfigError(problems)
        cfg = load_config(args.pop("config"))
        workers = args.pop("workers", None)
        if workers is not None:
            cfg.workers = workers
        return STAGES[command][0](cfg, **args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelFormatError as exc:
        print(f"model error: {exc}; rerun `kgrag {PRODUCER['model.json']}` with this config", file=sys.stderr)
        return EXIT_CONFIG
    except UpstreamArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except CompletionError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
