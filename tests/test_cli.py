import base64
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrag.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_OK,
    INPUTS,
    OUTPUTS,
    PER_QUESTION,
    PRODUCER,
    STAGES,
    main,
)
from kgrag import cli
from kgrag import kg as kgmod
from kgrag.kg import KnowledgeGraph, load_kg
from kgrag.retriever import ViewTables

from conftest import DATA, write_fixture_config

REPO_ROOT = Path(__file__).resolve().parent.parent
# a child interpreter that imports this checkout's kgrag
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])),
}
ALL_STAGES = ("ingest", "candidates", "refine", "train", "retrieve", "reorganize", "answer", "evaluate")


def run_pipeline(cfg_path, stages=ALL_STAGES):
    for stage in stages:
        rc = main([stage, "--config", str(cfg_path)])
        assert rc == EXIT_OK, f"stage {stage} failed with {rc}"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_fixture_config(tmp)
    run_pipeline(cfg_path)
    return tmp


ENTITY_LEVEL = {
    "retrieval_level": "entity",
    "top_k": 4,
    "entity_k_bonus": 4,
    "training": {"epochs": 5, "gnn_hidden": 8, "gnn_depth": 2},
}


@pytest.fixture(scope="module")
def entity_pipeline_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("entity-pipeline")
    run_pipeline(write_fixture_config(tmp, **ENTITY_LEVEL), ALL_STAGES[:5])
    return tmp


def config_in(work: Path, tmp_path: Path, **overrides) -> Path:
    """A fixture config under ``tmp_path`` whose work directory is ``work``'s."""
    cfg_path = write_fixture_config(tmp_path, **overrides)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(work / "out")
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_full_pipeline_metrics(pipeline_dir):
    report = json.loads((pipeline_dir / "out" / "report.json").read_text())
    assert report["hit"] == 1.0
    assert report["hit_at_1"] >= 10 / 12
    assert (pipeline_dir / "out" / "per_question.csv").exists()


def test_each_stage_writes_exactly_its_outputs(tmp_path):
    assert tuple(OUTPUTS) == tuple(STAGES) == ALL_STAGES
    cfg_path = write_fixture_config(tmp_path, training={"epochs": 1})
    out = tmp_path / "out"
    for stage in ALL_STAGES:
        before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        assert main([stage, "--config", str(cfg_path)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir() if p.name not in before) == sorted(OUTPUTS[stage]), stage
        assert {name: (out / name).read_bytes() for name in before} == before, stage


def test_readme_work_directory_table_is_the_stage_outputs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"### Work-directory artifacts\n[^#]*?\| File \| Producer \| Record \|\n\|.*\n((?:\|.*\n)+)", readme)
    documented: dict[str, tuple[str, ...]] = {}
    for row in table.group(1).splitlines():
        files, producer = (cell.strip() for cell in row.split("|")[1:3])
        documented[producer] = documented.get(producer, ()) + tuple(re.findall(r"`([^`]+)`", files))
    assert list(documented.items()) == list(OUTPUTS.items())


def test_all_artifacts_written(pipeline_dir):
    out = pipeline_dir / "out"
    for name in (
        "graph.tsv",
        "graph.json",
        "questions.jsonl",
        "pool.jsonl",
        "supervision.jsonl",
        "model.json",
        "retrieval.jsonl",
        "chains.jsonl",
        "answers.jsonl",
        "report.json",
    ):
        assert (out / name).exists(), name


def test_stage_isolation_bitwise(pipeline_dir, tmp_path):
    cfg_path = write_fixture_config(tmp_path)
    # reuse the already-built upstream artifacts by pointing at the same tree
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(pipeline_dir / "out")
    cfg_path.write_text(json.dumps(cfg))
    for stage, artifact in (
        ("candidates", "pool.jsonl"),
        ("retrieve", "retrieval.jsonl"),
        ("reorganize", "chains.jsonl"),
        ("answer", "answers.jsonl"),
    ):
        path = pipeline_dir / "out" / artifact
        before = path.read_bytes()
        path.unlink()
        assert main([stage, "--config", str(cfg_path)]) == EXIT_OK
        assert path.read_bytes() == before, f"{stage} not reproducible"


def test_train_twice_bitwise_identical(pipeline_dir, tmp_path):
    cfg_path = write_fixture_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(pipeline_dir / "out")
    cfg_path.write_text(json.dumps(cfg))
    model_path = pipeline_dir / "out" / "model.json"
    before = model_path.read_bytes()
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    assert model_path.read_bytes() == before


def test_a_second_ingest_writes_the_same_bytes(tmp_path):
    cfg_path = write_fixture_config(tmp_path)
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg_path)]) == EXIT_OK
    first = {name: (out / name).read_bytes() for name in OUTPUTS["ingest"]}
    assert main(["ingest", "--config", str(cfg_path)]) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in OUTPUTS["ingest"]} == first


# the three files hold only labels and integers (graph.json's packed little-endian), so their
# bytes do not depend on the platform, and none depends on the retrieval level; pool.jsonl and
# supervision.jsonl record each triple as its id beside its labels, supervision in ascending id
FIXTURE_SHA256 = {
    "graph.json": "22e70fc63cd2d758ef946240d296099f2cbc27a4cceb165ca43b10e1d98e396f",
    "pool.jsonl": "608516ce12501e8e7d2d9c1d6c96892706d8f59f4316924c299266d7ca33ada8",
    "supervision.jsonl": "e7b737d8ccdfeb133566de24173eb12d94f7d7dab1106dd1e4f1c26465c3f39a",
}


@pytest.mark.parametrize("work", ["pipeline_dir", "entity_pipeline_dir"])
def test_the_fixture_pool_and_supervision_keep_their_bytes(request, work):
    out = request.getfixturevalue(work) / "out"
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FIXTURE_SHA256} == FIXTURE_SHA256


@pytest.mark.parametrize(
    "argv",
    [*([stage] for stage in ALL_STAGES[1:]), ["train", "--no-refine"], ["answer", "--no-reorganize"]],
    ids=[*ALL_STAGES[1:], "train-no-refine", "answer-no-reorganize"],
)
def test_a_stage_reads_only_its_declared_inputs(pipeline_dir, tmp_path, monkeypatch, argv):
    """With every work-dir file outside ``INPUTS[stage]`` deleted, a stage still runs, and with its
    default flags writes what it wrote in the full pipeline; no stage resolves question labels
    again, none builds the whole-graph triple index that only ``ingest`` uses, and ``evaluate``
    runs without the graph."""
    stage = argv[0]
    assert tuple(INPUTS) == ALL_STAGES
    assert all(ALL_STAGES.index(PRODUCER[name]) < ALL_STAGES.index(stage) for name in INPUTS[stage])
    cfg_path = write_fixture_config(tmp_path)
    out = tmp_path / "out"
    shutil.copytree(pipeline_dir / "out", out)
    for path in out.iterdir():
        if path.name not in INPUTS[stage]:
            path.unlink()

    def label_load(*args, **kwargs):
        raise AssertionError("only ingest resolves question labels")

    def triple_index(storage):
        raise AssertionError("only ingest resolves triple labels")

    monkeypatch.setattr(kgmod, "load_questions", label_load)
    monkeypatch.setattr(kgmod._Storage, "triple_index", property(triple_index))
    assert main([*argv, "--config", str(cfg_path)]) == EXIT_OK
    if argv == [stage]:
        for name in OUTPUTS[stage]:
            assert (out / name).read_bytes() == (pipeline_dir / "out" / name).read_bytes(), name


def test_missing_artifact_names_producing_stage(tmp_path, capsys):
    cfg_path = write_fixture_config(tmp_path)
    assert main(["ingest", "--config", str(cfg_path)]) == EXIT_OK
    rc = main(["train", "--config", str(cfg_path)])
    assert rc == EXIT_MISSING
    err = capsys.readouterr().err
    assert "kgrag refine" in err


def test_candidates_requires_ingest(tmp_path, capsys):
    cfg_path = write_fixture_config(tmp_path)
    rc = main(["candidates", "--config", str(cfg_path)])
    assert rc == EXIT_MISSING
    assert "kgrag ingest" in capsys.readouterr().err


def test_config_error_lists_every_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"retrieval_level": "wrong", "top_k": 0, "paths": {}}))
    rc = main(["ingest", "--config", str(bad)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "retrieval_level" in err
    assert "top_k" in err
    assert "paths.kg" in err
    assert "paths.questions" in err


def test_config_file_not_found(tmp_path, capsys):
    rc = main(["ingest", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_CONFIG


def test_replay_backend_miss_exits_backend_failure(pipeline_dir, tmp_path, capsys):
    cfg_path = write_fixture_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(pipeline_dir / "out")
    cfg["paths"]["replay"] = str(tmp_path / "empty_replay.jsonl")
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["answer", "--config", str(cfg_path), "--llm", "replay"])
    assert rc == EXIT_BACKEND
    assert "replay" in capsys.readouterr().err


def test_no_reorganize_prompts_differ(pipeline_dir, tmp_path):
    cfg_path = write_fixture_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(pipeline_dir / "out")
    cfg_path.write_text(json.dumps(cfg))
    chained = {
        json.loads(l)["id"]: json.loads(l)["prompt_sha256"]
        for l in (pipeline_dir / "out" / "answers.jsonl").read_text().splitlines()
    }
    assert main(["answer", "--config", str(cfg_path), "--no-reorganize"]) == EXIT_OK
    flat = {
        json.loads(l)["id"]: json.loads(l)["prompt_sha256"]
        for l in (pipeline_dir / "out" / "answers.jsonl").read_text().splitlines()
    }
    assert all(chained[qid] != flat[qid] for qid in chained)
    # restore the chained answers for other tests
    assert main(["answer", "--config", str(cfg_path)]) == EXIT_OK


def test_retrieve_refuses_model_of_another_encoder(tmp_path):
    cfg_path = write_fixture_config(tmp_path, training={"epochs": 2})
    run_pipeline(cfg_path, stages=("ingest", "candidates", "refine", "train"))
    cfg = json.loads(cfg_path.read_text())
    cfg["text_dim"] = 32
    cfg_path.write_text(json.dumps(cfg))
    result = subprocess.run(
        [sys.executable, "-m", "kgrag", "retrieve", "--config", str(cfg_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=SRC_ENV,
    )
    assert result.returncode == EXIT_CONFIG
    assert "Traceback" not in result.stderr
    assert "kgrag train" in result.stderr


def test_refine_limit_restricts_cache(tmp_path):
    cfg_path = write_fixture_config(tmp_path)
    run_pipeline(cfg_path, stages=("ingest", "candidates"))
    assert main(["refine", "--config", str(cfg_path), "--limit", "3"]) == EXIT_OK
    out = Path(json.loads(cfg_path.read_text())["paths"]["work_dir"])
    lines = (out / "supervision.jsonl").read_text().splitlines()
    assert len(lines) == 3


def test_train_no_refine_uses_weak_supervision(tmp_path):
    cfg_path = write_fixture_config(tmp_path)
    run_pipeline(cfg_path, stages=("ingest",))
    assert main(["train", "--config", str(cfg_path), "--no-refine"]) == EXIT_OK
    out = Path(json.loads(cfg_path.read_text())["paths"]["work_dir"])
    assert (out / "model.json").exists()


@pytest.mark.parametrize(
    "stage, level",
    [*((stage, "triple") for stage in PER_QUESTION), ("retrieve", "entity")],
    ids=[*PER_QUESTION, "retrieve-entity"],
)
def test_workers_flag_preserves_output_bytes(request, tmp_path, stage, level):
    """At the entity level the fixture's questions are unscoped, so the threads share one view's tables."""
    overrides = ENTITY_LEVEL if level == "entity" else {}
    work = request.getfixturevalue("entity_pipeline_dir" if overrides else "pipeline_dir")
    cfg_path = config_in(work, tmp_path, **overrides)
    (name,) = OUTPUTS[stage]
    path = work / "out" / name
    before = path.read_bytes()
    assert main([stage, "--config", str(cfg_path), "--workers", "4"]) == EXIT_OK
    assert path.read_bytes() == before


@pytest.mark.parametrize("stage", ["train", "retrieve"])
def test_a_stage_keeps_no_graph_once_it_returns(entity_pipeline_dir, tmp_path, stage):
    """Stages can run one after another in one process: the view tables a stage shares
    between questions go with it, and so does every graph they were built from."""
    cfg_path = config_in(entity_pipeline_dir, tmp_path, **ENTITY_LEVEL)

    def counts() -> list[int]:
        gc.collect()
        objects = gc.get_objects()
        return [sum(isinstance(obj, kind) for obj in objects) for kind in (KnowledgeGraph, ViewTables)]

    before = counts()
    assert main([stage, "--config", str(cfg_path)]) == EXIT_OK
    assert all(after <= was for after, was in zip(counts(), before))


@pytest.mark.parametrize("stage", ["train", "retrieve"])
def test_a_stage_builds_the_loaded_graphs_tables_once(entity_pipeline_dir, tmp_path, monkeypatch, stage):
    """Every unscoped question's view is the loaded graph, so one set of its tables serves them all."""
    cfg_path = config_in(entity_pipeline_dir, tmp_path, **ENTITY_LEVEL)
    built, init = [], ViewTables.__init__

    def counted(self, g, encoder):
        built.append(len(g) == len(g.storage))
        init(self, g, encoder)

    monkeypatch.setattr(ViewTables, "__init__", counted)
    workers = ["--workers", "1"] if stage in PER_QUESTION else []
    assert main([stage, "--config", str(cfg_path), *workers]) == EXIT_OK
    assert built.count(True) == 1


def test_each_stage_prints_its_summary_line(tmp_path, capsys):
    cfg_path = write_fixture_config(tmp_path)
    out = tmp_path / "out"
    expected = {
        "ingest": f"ingested 44 triples, 12 questions -> {out}",
        "candidates": f"candidate pools for 12 questions -> {out / 'pool.jsonl'}",
        "refine": f"refined supervision for 12 questions -> {out / 'supervision.jsonl'}",
        "train": f"trained triple scorer on 12 questions (400 epochs) -> {out / 'model.json'}",
        "retrieve": f"retrieved top-8 triples for 12 questions -> {out / 'retrieval.jsonl'}",
        "reorganize": f"evidence chains for 12 questions -> {out / 'chains.jsonl'}",
        "answer": f"answers for 12 questions -> {out / 'answers.jsonl'}",
    }
    for stage, line in expected.items():
        assert main([stage, "--config", str(cfg_path)]) == EXIT_OK
        assert capsys.readouterr().out == line + "\n", stage
    assert main(["evaluate", "--config", str(cfg_path)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert capsys.readouterr().out == (
        f"macro_f1={report['macro_f1']:.4f} micro_f1={report['micro_f1']:.4f} "
        f"hit={report['hit']:.4f} hit@1={report['hit_at_1']:.4f} -> {out / 'report.json'}\n"
    )
    assert main(["refine", "--config", str(cfg_path), "--limit", "3"]) == EXIT_OK
    assert capsys.readouterr().out == f"refined supervision for 3 questions -> {out / 'supervision.jsonl'}\n"


def test_entity_level_pipeline_runs(tmp_path):
    cfg_path = write_fixture_config(
        tmp_path,
        retrieval_level="entity",
        top_k=4,
        entity_k_bonus=4,
        training={"epochs": 40, "hidden": [64, 64], "learning_rate": 0.2, "gnn_hidden": 16, "gnn_depth": 2},
    )
    run_pipeline(cfg_path)
    out = Path(json.loads(cfg_path.read_text())["paths"]["work_dir"])
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["hit"] <= 1.0
    # entity-level K bonus applies
    retrieval = [json.loads(l) for l in (out / "retrieval.jsonl").read_text().splitlines()]
    assert max(len(rec["tids"]) for rec in retrieval) == 8  # top_k 4 plus the bonus 4


def test_pipeline_with_demo_files(tmp_path):
    refine_demos = tmp_path / "refine_demos.json"
    refine_demos.write_text(
        json.dumps(
            [
                {
                    "question": "which sea borders italy",
                    "chains": ["italy → [borders_sea] → mediterranean"],
                    "selection": [1],
                    "explanation": "the chain ends at the sea asked about",
                }
            ]
        )
    )
    qa_demos = tmp_path / "qa_demos.json"
    qa_demos.write_text(
        json.dumps(
            [
                {
                    "question": "which sea borders italy",
                    "evidence": ["italy → [borders_sea] → mediterranean"],
                    "answers": ["mediterranean"],
                    "explanation": "the evidence names the sea directly",
                }
            ]
        )
    )
    cfg_path = write_fixture_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["refine_demos"] = str(refine_demos)
    cfg["paths"]["qa_demos"] = str(qa_demos)
    cfg_path.write_text(json.dumps(cfg))
    run_pipeline(cfg_path)
    out = Path(json.loads(cfg_path.read_text())["paths"]["work_dir"])
    report = json.loads((out / "report.json").read_text())
    assert report["hit"] == 1.0


def test_evaluate_with_alias_table(pipeline_dir, tmp_path):
    aliases = tmp_path / "aliases.json"
    aliases.write_text(json.dumps({"the eternal city": "rome"}))
    cfg_path = write_fixture_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(pipeline_dir / "out")
    cfg["paths"]["aliases"] = str(aliases)
    cfg_path.write_text(json.dumps(cfg))
    assert main(["evaluate", "--config", str(cfg_path)]) == EXIT_OK
    report = json.loads((pipeline_dir / "out" / "report.json").read_text())
    assert report["hit"] == 1.0


def test_answer_from_replay_cache(pipeline_dir, tmp_path):
    from kgrag.llm import CompletionRequest, ReplayStore, request_digest
    from kgrag.reorganize import build_qa_prompt, read_chains

    questions = [
        json.loads(line)
        for line in (pipeline_dir / "out" / "questions.jsonl").read_text().splitlines()
    ]
    with (pipeline_dir / "out" / "graph.tsv").open() as fh:
        g = load_kg(fh, "tsv")
    with (pipeline_dir / "out" / "chains.jsonl").open() as fh:
        chains_by_q = read_chains(fh, g, [q["id"] for q in questions])
    store = ReplayStore(tmp_path / "replay.jsonl")
    for q in questions:
        built = build_qa_prompt(q["question"], chains_by_q.get(q["id"], []), g)
        request = CompletionRequest(
            system_text=built.system_text,
            user_text=built.user_text,
            temperature=0.0,
            seed=42,
            max_tokens=1024,
        )
        store.put(request_digest(request), '["recorded answer"]', 5, 3)

    cfg_path = write_fixture_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(pipeline_dir / "out")
    cfg["paths"]["replay"] = str(tmp_path / "replay.jsonl")
    cfg_path.write_text(json.dumps(cfg))
    assert main(["answer", "--config", str(cfg_path), "--llm", "replay"]) == EXIT_OK
    answers = [
        json.loads(line)
        for line in (pipeline_dir / "out" / "answers.jsonl").read_text().splitlines()
    ]
    assert all(rec["answers"] == ["recorded answer"] for rec in answers)
    # restore mock answers for the other module-scoped tests
    assert main(["answer", "--config", str(cfg_path)]) == EXIT_OK


def test_simulate_command(tmp_path):
    exp = tmp_path / "exp.json"
    exp.write_text(
        json.dumps(
            {
                "N": 60,
                "K": 2,
                "s0": 1.0,
                "delta0": 0.0,
                "S": 10,
                "threshold": 0.05,
                "max_rounds": 400,
                "trials": 25,
                "seed": 7,
            }
        )
    )
    rc = main(["simulate", "--config", str(exp), "--out-dir", str(tmp_path / "sim")])
    assert rc == EXIT_OK
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
    assert summary["trials"] == 25
    assert (tmp_path / "sim" / "trials.csv").read_text().startswith("trial,rounds")


_EXPERIMENT = {"N": 60, "K": 2, "S": 10, "threshold": 0.05, "max_rounds": 50, "trials": 3, "seed": 7}


def _experiment_without(key):
    return json.dumps({k: v for k, v in _EXPERIMENT.items() if k != key})


@pytest.mark.parametrize(
    "text, shown",
    [
        (None, "cannot be read"),
        ('{"N": 60, "K"', "not valid JSON"),
        ("[60, 2, 10]", "must hold an object"),
        (_experiment_without("N"), "missing field 'N'"),
        (_experiment_without("K"), "missing field 'K'"),
        (_experiment_without("S"), "missing field 'S'"),
        (_experiment_without("threshold"), "missing field 'threshold'"),
        (json.dumps({**_EXPERIMENT, "K": 0}), "K must lie in [1, 60], got 0"),
        (json.dumps({**_EXPERIMENT, "S": 61}), "S must lie in [1, 60], got 61"),
        (json.dumps({**_EXPERIMENT, "N": "many"}), "N has the wrong type"),
        (json.dumps({**_EXPERIMENT, "max_rounds": 0}), "max_rounds must be >= 1"),
        (json.dumps({**_EXPERIMENT, "threshold": math.nan}), "threshold must be a finite number, got nan"),
        (json.dumps({**_EXPERIMENT, "s0": math.inf}), "s0 must be a finite number, got inf"),
        (json.dumps({**_EXPERIMENT, "delta0": -math.inf}), "delta0 must be a finite number, got -inf"),
    ],
    ids=["missing-file", "not-json", "not-object", "no-N", "no-K", "no-S", "no-threshold", "K-0",
         "S-over-N", "N-string", "max_rounds-0", "threshold-NaN", "s0-Infinity", "delta0-minus-Infinity"],
)
def test_simulate_bad_experiment_exits_config(tmp_path, capsys, text, shown):
    exp = tmp_path / "exp.json"
    if text is not None:
        exp.write_text(text)
    rc = main(["simulate", "--config", str(exp), "--out-dir", str(tmp_path / "sim")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert f"experiment {exp}" in err
    assert shown in err
    assert not (tmp_path / "sim").exists()


def test_failed_simulate_replaces_neither_output(tmp_path, monkeypatch):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps(_EXPERIMENT))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(exp), "--out-dir", str(out)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    exp.write_text(json.dumps({**_EXPERIMENT, "trials": 4}))  # a longer trials.csv

    def fail(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_summary_json", fail)
    with pytest.raises(OSError):
        main(["simulate", "--config", str(exp), "--out-dir", str(out)])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize(
    "stage, key, text, shown",
    [
        ("answer", "qa_demos", '[{"question": "q?", "answers": ["a"]}]', "missing field 'evidence'"),
        ("answer", "qa_demos", '{"question": "q?"}', "must hold a list"),
        ("refine", "refine_demos", '[{"question": "q?", "chains": 5, "selection": [1]}]', "chains has the wrong type"),
        ("evaluate", "aliases", None, "cannot be read"),
        ("evaluate", "aliases", '{"the eternal city": ', "not valid JSON"),
    ],
    ids=["qa-demo-without-evidence", "qa-demos-not-list", "refine-demo-chains-int", "aliases-missing",
         "aliases-not-json"],
)
def test_bad_demo_or_alias_file_exits_config(pipeline_dir, tmp_path, capsys, stage, key, text, shown):
    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    source = tmp_path / f"{key}.json"
    if text is not None:
        source.write_text(text)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"][key] = str(source)
    cfg_path.write_text(json.dumps(cfg))
    rc = main([stage, "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert f"paths.{key} {source}" in err
    assert shown in err
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


@pytest.mark.parametrize("stage", ["refine", "answer"])
def test_remote_backend_without_environment_exits_config(pipeline_dir, tmp_path, capsys, monkeypatch, stage):
    monkeypatch.delenv("REG_LLM_URL", raising=False)
    monkeypatch.delenv("REG_LLM_MODEL", raising=False)
    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    rc = main([stage, "--config", str(cfg_path), "--llm", "remote"])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "REG_LLM_URL" in err and "REG_LLM_MODEL" in err


def _drop_encoder_tag(text: str) -> str:
    payload = json.loads(text)
    del payload["encoder_tag"]
    return json.dumps(payload)


def _edit_model(edit):
    def corrupt(text: str) -> str:
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)

    return corrupt


def _weight(*shape, value=0.5):
    n = int(np.prod(shape))
    return {"shape": list(shape), "data": base64.b64encode(np.full(n, value).astype("<f8").tobytes()).decode()}


@pytest.mark.parametrize(
    "corrupt, shown",
    [
        (lambda text: text[: len(text) // 2], "invalid JSON"),
        (_drop_encoder_tag, "missing field 'encoder_tag'"),
        (_edit_model(lambda m: m["arch"].update(hidden="64")), "hidden has the wrong type: '64'"),
        (_edit_model(lambda m: m.update(dde_depth=3.0)), "dde_depth has the wrong type: 3.0"),
        (_edit_model(lambda m: m.update(seed="42")), "seed has the wrong type: '42'"),
        (_edit_model(lambda m: m["arch"].update(hidden=[64])), "weight 'W1' has shape (64, 64) in the file and none in the triple scorer's layout"),
        (_edit_model(lambda m: m["weights"].update(b_out=_weight(2))), "weight 'b_out' has shape (2,) in the file and (1,)"),
        (_edit_model(lambda m: m["weights"].update(W9=_weight(1))), "weight 'W9' has shape (1,) in the file and none"),
        (_edit_model(lambda m: m["arch"].update(input_dim=0.5)), "input_dim has the wrong type: 0.5"),
        (_edit_model(lambda m: m.update(dde_slots=True)), "dde_slots has the wrong type: True"),
        (_edit_model(lambda m: m["arch"].update(activation="sigmoid")), "activation must be 'tanh' or 'relu'"),
        (_edit_model(lambda m: m["weights"].update(W1=_weight(3, 3))), "weight 'W1' has shape (3, 3) in the file and (64, 64)"),
        (_edit_model(lambda m: m["weights"]["b_out"].update(_weight(2), shape=[1])), "field 'weights': cannot reshape array of size 2 into shape (1,)"),
        (_edit_model(lambda m: m["weights"].pop("W1")), "weight 'W1' has shape none in the file and (64, 64)"),
        (
            _edit_model(lambda m: m.update(dde_depth=2)),
            "arch input_dim is 316, but encoder 'hashed-bow-64', dde_depth 2 and dde_slots 3 give features of width 304",
        ),
        (
            _edit_model(lambda m: (m["arch"].update(input_dim=-1), m["weights"]["W0"].update(shape=[-1, 64]))),
            "arch input_dim is -1, but encoder 'hashed-bow-64', dde_depth 3 and dde_slots 3 give features of width 316",
        ),
        (_edit_model(lambda m: m.update(dde_depth=0)), "dde_depth 0 and dde_slots 3 must be >= 1"),
    ],
    ids=[
        "cut-in-half", "no-encoder_tag", "hidden-string", "dde_depth-float", "seed-string", "hidden-one-layer",
        "b_out-two-values", "extra-weight", "input_dim-float", "dde_slots-true", "activation-sigmoid",
        "W1-wrong-shape", "b_out-data-of-two", "no-W1", "dde_depth-not-trained", "input_dim-forged", "dde_depth-zero",
    ],
)
def test_unreadable_model_exits_missing(pipeline_dir, tmp_path, capsys, corrupt, shown):
    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    model = tmp_path / "out" / "model.json"
    model.write_text(corrupt(model.read_text(encoding="utf-8")), encoding="utf-8")
    rc = main(["retrieve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_MISSING
    assert "model.json" in err
    assert shown in err
    assert "rerun `kgrag train`" in err
    assert "line 1" in err
    assert "Traceback" not in err


def test_model_of_format_version_1_exits_config(pipeline_dir, tmp_path, capsys):
    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    model = tmp_path / "out" / "model.json"
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["format_version"] = 1  # version 1 stored each weight as nested JSON lists
    payload["weights"] = {name: [0.0] * len(w["shape"]) for name, w in payload["weights"].items()}
    model.write_text(json.dumps(payload), encoding="utf-8")
    rc = main(["retrieve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "unsupported model format 1" in err
    assert "rerun `kgrag train`" in err
    assert "Traceback" not in err


def test_module_entry_point(tmp_path):
    cfg_path = write_fixture_config(tmp_path)
    result = subprocess.run(
        [sys.executable, "-m", "kgrag", "ingest", "--config", str(cfg_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=SRC_ENV,
    )
    assert result.returncode == 0
    assert "ingested" in result.stdout


def _edit_first_record(edit):
    def corrupt(text: str) -> str:
        lines = text.splitlines()
        record = json.loads(lines[0])
        edit(record)
        return "\n".join([json.dumps(record), *lines[1:]]) + "\n"

    return corrupt


def _edit_record(qid, edit):
    """An edit of the record of question ``qid``."""

    def corrupt(text: str) -> str:
        records = [json.loads(line) for line in text.splitlines()]
        edit(next(rec for rec in records if qid in (rec.get("id"), rec.get("question_id"))))
        return "".join(json.dumps(rec) + "\n" for rec in records)

    return corrupt


def _unknown_pool_label(rec):
    rec["paths"][0]["triples"][0][0] = "no-such-entity"


def _unknown_supervision_label(rec):
    rec["triples"][0][1] = "no-such-relation"


def _supervision_triple_not_in_graph(rec):
    head, relation, _ = rec["triples"][0]
    rec["triples"][0] = [head, relation, head]  # the fixture has no self-loops


def _supervision_id_repeated(rec):
    for key in ("tids", "triples"):
        rec[key].append(rec[key][-1])


def _supervision_ids_reversed(rec):
    for key in ("tids", "triples"):
        rec[key].reverse()


def _retrieved_tid_out_of_range(rec):
    rec["tids"][0] = 10**6


def _retrieved_tid_plus_fraction(rec):
    rec["tids"][0] += 0.9  # int() of it is the recorded triple, whose labels match


def _pool_without_orientations(rec):
    del rec["paths"][0]["orientations"]


def _pool_orientation_x(rec):
    rec["paths"][0]["orientations"][0] = "x"


def _scope_item_of_two_labels(rec):
    rec["scope"] = [["spain", "capital"]]


def _retrieved_labels_foreign(rec):
    rec["triples"][0][0], rec["triples"][0][2] = "Nowhere", "Nobody"


def _chain_target_not_in_graph(rec):
    rec["chains"][0]["targets"].append("Nowhere")


def _chain_turning(rec):
    # a chain's one orientation cannot name a flag per step
    next(c for c in rec["chains"] if len(c["tids"]) == 2)["orientation"] = ["f", "b"]


def _chain_without_steps(rec):
    rec["chains"][0].update(triples=[], tids=[], scores=[])


def _chain_step_not_in_graph(rec):
    rec["chains"][0]["tids"][0] = 10**6
    rec["chains"][0]["triples"][0][2] = "spain"


def _chain_tail_foreign(rec):
    rec["chains"][0]["triples"][0][2] = rec["chains"][1]["triples"][0][2]


def _chains_of_the_parent_format(rec):
    # the earlier format named a chain's triples `steps` and repeated its orientation per step
    for chain in rec["chains"]:
        chain["steps"] = chain.pop("triples")
        chain["orientations"] = [chain.pop("orientation")] * len(chain["tids"])


def _pool_path_turned(rec):
    # alice -founded-> acme_corp -logo_color-> red, its second step read backward from red
    next(path for path in rec["paths"] if len(path["triples"]) == 2)["orientations"][1] = "b"


def _pool_path_repeated(rec):
    rec["paths"].append(rec["paths"][0])


def _retrieved_merge_not_parallel(rec):
    # the first step of q01, spain capital madrid, has no parallel triple
    rec["merged"] = [[rec["tids"][0], rec["tids"][0] + 1]]


def _set(*path_and_value):
    """An edit that sets the value at a key path of the first record."""
    *path, key, value = path_and_value

    def edit(rec):
        for step in path:
            rec = rec[step]
        rec[key] = value

    return _edit_first_record(edit)


def _first_line_twice(text: str) -> str:
    return text.splitlines(keepends=True)[0] + text


def _first_line_dropped(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[1:])


def _cut_inside_a_character(text: str) -> str:
    return text + '{"id": "\u00e9'.encode()[:-1].decode("utf-8", "surrogateescape")  # "é" without its last byte


@pytest.mark.parametrize(
    "artifact, stage, producer, corrupt",
    [
        ("pool.jsonl", "refine", "candidates", _edit_first_record(_unknown_pool_label)),
        ("supervision.jsonl", "train", "refine", _edit_first_record(_unknown_supervision_label)),
        ("supervision.jsonl", "train", "refine", _edit_first_record(_supervision_triple_not_in_graph)),
        ("retrieval.jsonl", "reorganize", "retrieve", _edit_first_record(_retrieved_tid_out_of_range)),
        ("chains.jsonl", "answer", "reorganize", lambda text: text[: len(text) // 2]),
        ("pool.jsonl", "refine", "candidates", _edit_first_record(_pool_without_orientations)),
        ("pool.jsonl", "refine", "candidates", _edit_first_record(_pool_orientation_x)),
        ("retrieval.jsonl", "reorganize", "retrieve", _edit_first_record(lambda rec: rec.pop("scores"))),
        ("chains.jsonl", "answer", "reorganize", _edit_first_record(lambda rec: rec["chains"][0].pop("tids"))),
        ("answers.jsonl", "evaluate", "answer", _edit_first_record(lambda rec: rec.pop("answers"))),
        ("questions.jsonl", "candidates", "ingest", _edit_first_record(_scope_item_of_two_labels)),
        ("answers.jsonl", "evaluate", "answer", _edit_first_record(lambda rec: rec.update(id="no-such-question"))),
        ("retrieval.jsonl", "reorganize", "retrieve", _edit_first_record(_retrieved_labels_foreign)),
        ("retrieval.jsonl", "answer --no-reorganize", "retrieve", _edit_first_record(_retrieved_labels_foreign)),
        ("answers.jsonl", "evaluate", "answer", _first_line_twice),
        ("answers.jsonl", "evaluate", "answer", _first_line_dropped),
        ("answers.jsonl", "evaluate", "answer", _cut_inside_a_character),
        # each of these was misread with exit 0, or ended in a traceback, before every
        # artifact field was read as its JSON type
        ("answers.jsonl", "evaluate", "answer", _set("answers", "mediterranean")),
        ("answers.jsonl", "evaluate", "answer", _set("answers", [1, 2])),
        ("retrieval.jsonl", "reorganize", "retrieve", _set("scores", 0, "0.5")),
        ("retrieval.jsonl", "reorganize", "retrieve", _set("scores", 0, True)),
        ("retrieval.jsonl", "reorganize", "retrieve", _edit_first_record(_retrieved_tid_plus_fraction)),
        ("retrieval.jsonl", "reorganize", "retrieve", _set("triples", 0, 1, 7)),
        ("pool.jsonl", "refine", "candidates", _set("id", 7)),
        ("pool.jsonl", "refine", "candidates", _set("paths", 0, "provenance", 5)),
        ("chains.jsonl", "answer", "reorganize", _set("chains", 0, "targets", "abc")),
        ("chains.jsonl", "answer", "reorganize", _set("chains", 0, "triples", 0, "abc")),
        ("questions.jsonl", "candidates", "ingest", _set("question_entities", "abc")),
        ("questions.jsonl", "candidates", "ingest", _set("scope", [["spain", "capital", 5]])),
        # each of these exited 0 before every per-question artifact was read by question id
        ("pool.jsonl", "refine", "candidates", _first_line_twice),
        ("pool.jsonl", "refine", "candidates", _set("id", "no-such-question")),
        ("pool.jsonl", "refine", "candidates", _first_line_dropped),
        ("retrieval.jsonl", "reorganize", "retrieve", _first_line_twice),
        ("retrieval.jsonl", "reorganize", "retrieve", _set("id", "no-such-question")),
        ("retrieval.jsonl", "reorganize", "retrieve", _first_line_dropped),
        ("retrieval.jsonl", "answer --no-reorganize", "retrieve", _first_line_dropped),
        ("chains.jsonl", "answer", "reorganize", _first_line_twice),
        ("chains.jsonl", "answer", "reorganize", _set("question_id", "no-such-question")),
        ("chains.jsonl", "answer", "reorganize", _first_line_dropped),
        ("supervision.jsonl", "train", "refine", _first_line_twice),
        ("supervision.jsonl", "train", "refine", _set("question_id", "no-such-question")),
        ("questions.jsonl", "candidates", "ingest", _first_line_twice),
        ("questions.jsonl", "candidates", "ingest", _set("answer_entities", ["Nowhere"])),
        # each of these exited 0, or ended in a traceback, before a chain was read as one that
        # runs one way from its anchor
        ("chains.jsonl", "answer", "reorganize", _set("chains", 0, "orientation", "x")),
        ("chains.jsonl", "answer", "reorganize", _edit_first_record(_chain_turning)),
        ("chains.jsonl", "answer", "reorganize", _edit_first_record(_chain_without_steps)),
        # each of these exited 0 before chain steps were read against the graph and pool paths
        # were checked to connect
        ("chains.jsonl", "answer", "reorganize", _edit_first_record(_chain_step_not_in_graph)),
        ("chains.jsonl", "answer", "reorganize", _edit_first_record(_chain_tail_foreign)),
        ("pool.jsonl", "refine", "candidates", _edit_record("q08", _pool_path_turned)),
        # this exited 0 before a path repeated within a pool record was refused
        ("pool.jsonl", "refine", "candidates", _edit_first_record(_pool_path_repeated)),
        # a chain's target labels are read against the graph, and a chain of the earlier format
        # (`steps`, and `orientations` with a flag per step) is not read
        ("chains.jsonl", "answer", "reorganize", _edit_first_record(_chain_target_not_in_graph)),
        ("chains.jsonl", "answer", "reorganize", _edit_first_record(_chains_of_the_parent_format)),
        # each of these exited 0 before a chain's targets were read as distinct and in
        # ascending entity id (madrid is entity 1, spain entity 0)
        ("chains.jsonl", "answer", "reorganize", _set("chains", 0, "targets", ["madrid", "madrid"])),
        ("chains.jsonl", "answer", "reorganize", _set("chains", 0, "targets", ["madrid", "spain"])),
        ("chains.jsonl", "answer", "reorganize", _set("chains", 0, "targets", [])),
        # each of these exited 0 before a step's relation was read against the graph: a step
        # records its triple's own label, and a merge the ids of triples parallel to it
        ("retrieval.jsonl", "reorganize", "retrieve", _set("triples", 0, 1, "invented_relation")),
        ("retrieval.jsonl", "answer --no-reorganize", "retrieve", _set("triples", 0, 1, "invented_relation")),
        ("retrieval.jsonl", "reorganize", "retrieve", _edit_first_record(_retrieved_merge_not_parallel)),
        ("chains.jsonl", "answer", "reorganize", _set("chains", 0, "triples", 0, 1, "invented_relation")),
        # each of these exited 0 before supervision ids were read as strictly ascending
        ("supervision.jsonl", "train", "refine", _edit_record("q03", _supervision_id_repeated)),
        ("supervision.jsonl", "train", "refine", _edit_record("q03", _supervision_ids_reversed)),
    ],
    ids=[
        "pool-label",
        "supervision-label",
        "supervision-triple",
        "retrieval-tid",
        "truncated-chains",
        "pool-no-orientations",
        "pool-orientation-x",
        "retrieval-no-scores",
        "chains-no-tids",
        "answers-no-answers",
        "questions-scope-item-of-two",
        "answers-foreign-id",
        "retrieval-foreign-label",
        "retrieval-foreign-label-flat",
        "answers-duplicate-id",
        "answers-missing-id",
        "answers-cut-inside-a-character",
        "answers-string",
        "answers-ints",
        "retrieval-score-string",
        "retrieval-score-true",
        "retrieval-tid-float",
        "retrieval-relation-int",
        "pool-id-int",
        "pool-provenance-int",
        "chains-targets-string",
        "chains-step-string",
        "questions-entities-string",
        "questions-scope-label-int",
        "pool-duplicate-id",
        "pool-foreign-id",
        "pool-missing-id",
        "retrieval-duplicate-id",
        "retrieval-foreign-id",
        "retrieval-missing-id",
        "retrieval-missing-id-flat",
        "chains-duplicate-id",
        "chains-foreign-id",
        "chains-missing-id",
        "supervision-duplicate-id",
        "supervision-foreign-id",
        "questions-duplicate-id",
        "questions-unresolved-label",
        "chains-orientation-x",
        "chains-turning",
        "chains-no-steps",
        "chains-step-not-in-graph",
        "chains-tail-foreign",
        "pool-path-turned",
        "pool-path-repeated",
        "chains-target-not-in-graph",
        "chains-parent-format",
        "chains-targets-repeated",
        "chains-targets-descending",
        "chains-no-targets",
        "retrieval-relation-invented",
        "retrieval-relation-invented-flat",
        "retrieval-relation-merge-not-parallel",
        "chains-relation-invented",
        "supervision-id-repeated",
        "supervision-ids-descending",
    ],
)
def test_stale_upstream_artifact_names_producing_stage(
    pipeline_dir, tmp_path, capsys, artifact, stage, producer, corrupt
):
    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    path = tmp_path / "out" / artifact
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8", errors="surrogateescape")
    rc = main([*stage.split(), "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_MISSING
    assert f"kgrag {producer}" in err
    assert artifact in err
    assert "line " in err
    assert "Traceback" not in err


def _step_id_past_the_graph(steps):
    steps["tids"][0] = 10**6
    return "triple id 1000000 not in graph"


def _step_id_negative(steps):
    steps["tids"][0] = -1
    return "triple id -1 not in graph"


def _step_ends_swapped(steps):
    h, r, t = steps["triples"][0]
    steps["triples"][0] = [t, r, h]
    return f"field 'triples': triple {steps['tids'][0]} is {[h, r, t]} in the graph, not {[t, r, h]}"


def _step_relation_invented(steps):
    h, own, t = steps["triples"][-1]
    steps["triples"][-1][1] = "invented_relation"
    return f"field 'triples': triple {steps['tids'][-1]} is {[h, own, t]} in the graph, not {steps['triples'][-1]}"


def _step_score_dropped(steps):
    steps["scores"].pop()
    return "tids and scores differ in length"


_STEP_DAMAGES = {
    "id-past-the-graph": _step_id_past_the_graph,
    "id-negative": _step_id_negative,
    "ends-swapped": _step_ends_swapped,
    "relation-invented": _step_relation_invented,
    "score-dropped": _step_score_dropped,
}


@pytest.mark.parametrize(
    "artifact, stage, damage",
    [
        pytest.param(artifact, stage, _STEP_DAMAGES[name], id=f"{name}-{artifact}-{stage}")
        for artifact, stage, names in [
            ("retrieval.jsonl", "reorganize", _STEP_DAMAGES),
            ("chains.jsonl", "answer", _STEP_DAMAGES),
            ("pool.jsonl", "refine", [name for name in _STEP_DAMAGES if name != "score-dropped"]),  # no scores
        ]
        for name in names
    ],
)
def test_each_refused_step_exits_3_with_its_own_text(pipeline_dir, tmp_path, capsys, artifact, stage, damage):
    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    path = tmp_path / "out" / artifact
    first, *rest = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(first)
    nested = {"chains.jsonl": "chains", "pool.jsonl": "paths"}.get(artifact)
    shown = damage(record[nested][0] if nested else record)
    if nested:  # a chain or a pool path is read as an item of its record's field
        shown = f"{nested}[0]: {shown}"
    path.write_text("\n".join([json.dumps(record), *rest]) + "\n", encoding="utf-8")
    rc = main([stage, "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_MISSING
    assert f"{artifact}: line 1: {shown}" in err
    assert "Traceback" not in err


def _edit_graph_tsv(out):
    path = out / "graph.tsv"
    path.write_text(path.read_text(encoding="utf-8").replace("spain", "espana", 1), encoding="utf-8")


def _edit_graph_record(edit):
    """Damage that edits graph.json's record as written, its id columns packed."""

    def damage(out):
        path = out / "graph.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        edit(record)
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")

    return damage


_ID_COLUMNS = ("head", "relation", "tail")


def _unpacked(column: str) -> list[int]:
    return np.frombuffer(base64.b64decode(column, validate=True), "<i4").tolist()


def _edit_compiled(edit):
    """Damage that edits graph.json's record with its id columns as lists of ints, packed again after."""

    def unpacked(record):
        record.update({key: _unpacked(record[key]) for key in _ID_COLUMNS})
        edit(record)
        record.update({key: base64.b64encode(np.asarray(record[key], "<i4").tobytes()).decode() for key in _ID_COLUMNS})

    return _edit_graph_record(unpacked)


@pytest.mark.parametrize(
    "damage, shown",
    [
        (_edit_graph_tsv, "but graph.tsv has"),
        (lambda out: (out / "graph.json").unlink(), "missing artifact"),
        (lambda out: (out / "graph.tsv").unlink(), "missing artifact"),
        (_edit_compiled(lambda g: g["tail"].__setitem__(0, len(g["entities"]))), "tail holds an id outside the"),
        (_edit_compiled(lambda g: g["entities"].__setitem__(1, g["entities"][0])), "a label repeats"),
        (_edit_compiled(lambda g: g["relations"].append(g["relations"][0])), "a label repeats"),
        (_edit_compiled(lambda g: [g[k].append(g[k][0]) for k in ("head", "relation", "tail")]), "a triple repeats"),
        (_edit_compiled(lambda g: g["relation"].pop()), "head, relation and tail differ in length"),
        (_edit_compiled(lambda g: g["head"].__setitem__(0, -1)), "head holds an id outside the"),
        (_edit_compiled(lambda g: g.update(format_version=1, graph_tsv_sha256="0" * 64)), "but graph.json has"),
        (lambda out: (out / "graph.json").write_text("", encoding="utf-8"), "expected one graph record, found 0"),
        (  # paris answers no fixture question; the new label is unique and the keys stay sorted
            _edit_compiled(lambda g: g["entities"].__setitem__(g["entities"].index("paris"), "paris_renamed")),
            "but graph.json has",
        ),
        (_edit_graph_record(lambda g: g.update(head="!" + g["head"][1:])), "field 'head'"),
        (
            _edit_graph_record(lambda g: g.update(tail=base64.b64encode(base64.b64decode(g["tail"])[:-1]).decode())),
            "field 'tail'",
        ),
        (_edit_graph_record(lambda g: g.update(relation=_unpacked(g["relation"]))), "relation has the wrong type"),
    ],
    ids=[
        "graph.tsv-edited", "graph.json-deleted", "graph.tsv-deleted", "tail-id-of-entity-count",
        "entity-label-repeats", "relation-label-repeats", "triple-repeats", "columns-of-unequal-length",
        "head-id-negative", "graph.json-previous-format", "graph.json-empty", "graph.json-label-renamed",
        "column-not-base64", "column-bytes-not-int32", "column-a-json-list",
    ],
)
def test_a_stale_or_damaged_compiled_graph_exits_missing(pipeline_dir, tmp_path, capsys, damage, shown):
    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    damage(tmp_path / "out")
    rc = main(["candidates", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_MISSING
    assert "kgrag ingest" in err
    assert shown in err
    assert "Traceback" not in err


def test_a_stage_parses_the_graph_json_it_hashed(pipeline_dir, tmp_path, monkeypatch):
    """An ingest that replaces graph.json just after a stage has read it for its digest does not
    pair the new graph with the compiled questions of the old one: the stage parses the bytes it
    hashed, so it writes what the full pipeline wrote."""
    from kgrag import cli

    cfg_path = write_fixture_config(tmp_path)
    out = tmp_path / "out"
    shutil.copytree(pipeline_dir / "out", out)
    require = cli._require

    def racing_require(cfg, name):
        path = require(cfg, name)
        if name != "graph.json":
            return path

        class Racing(type(path)):
            def read_bytes(self):
                data = super().read_bytes()
                self.write_bytes(data.replace(b'"uses_currency"', b'"currency"'))  # a relation renamed
                return data

        return Racing(path)

    monkeypatch.setattr(cli, "_require", racing_require)
    assert main(["candidates", "--config", str(cfg_path)]) == EXIT_OK
    assert b'"currency"' in (out / "graph.json").read_bytes()
    assert (out / "pool.jsonl").read_bytes() == (pipeline_dir / "out" / "pool.jsonl").read_bytes()


def _edit_compiled_questions(edit):
    def damage(out):
        path = out / "questions.compiled.jsonl"
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        edit(records)
        path.write_text("".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records), encoding="utf-8")

    return damage


def _edit_questions_jsonl(out):
    path = out / "questions.jsonl"
    path.write_text(path.read_text(encoding="utf-8").replace("capital of spain", "capital of france", 1), encoding="utf-8")


_COMPILED_QUESTIONS_DAMAGE = {
    # id: damage, what the message shows, whether evaluate reads what is damaged
    "questions.jsonl-edited": (_edit_questions_jsonl, "but questions.jsonl has", True),
    **{
        "digest-missing" if name == "questions.jsonl" else f"digest-missing-{name}": (
            _edit_compiled_questions(lambda recs, name=name: recs[0]["sha256"].pop(name)),
            "missing field",
            name == "questions.jsonl",  # evaluate hashes no graph file
        )
        for name in ("questions.jsonl", "graph.tsv", "graph.json")
    },
    "digest-int": (_edit_compiled_questions(lambda recs: recs[0]["sha256"].update({"graph.tsv": 5})), "wrong type", True),
    "scope-id-out-of-range": (
        _edit_compiled_questions(lambda recs: recs[1].update(scope=[0, 44])), "scope holds an id outside the 44 triples", False
    ),
    "scope-id-float": (_edit_compiled_questions(lambda recs: recs[1].update(scope=[0, 1.5])), "field 'scope'", True),
    "entity-id-negative": (
        _edit_compiled_questions(lambda recs: recs[1].update(query_entities=[-1])), "query_entities holds an id outside", False
    ),
    "answer-id-out-of-range": (
        _edit_compiled_questions(lambda recs: recs[2].update(answer_entities=[10**6])), "answer_entities holds an id", False
    ),
    "answers-foreign": (
        _edit_compiled_questions(lambda recs: recs[1].update(answers=["euro"])), "answers are not the labels of", False
    ),
    "answers-string": (_edit_compiled_questions(lambda recs: recs[1].update(answers="madrid")), "field 'answers'", True),
    "id-int": (_edit_compiled_questions(lambda recs: recs[1].update(id=1)), "field 'id'", True),
    "id-repeats": (_edit_compiled_questions(lambda recs: recs.insert(2, recs[1])), "question 'q01' repeats", True),
    "question-dropped": (
        _edit_compiled_questions(lambda recs: recs.pop()), "the header counts 12 questions, but 11 follow it", True
    ),
    "count-high": (
        _edit_compiled_questions(lambda recs: recs[0].update(questions=13)), "the header counts 13 questions", True
    ),
    "format-version-4": (
        _edit_compiled_questions(lambda recs: recs[0].update(format_version=4)), "compiled questions format 4", True
    ),
    "deleted": (lambda out: (out / "questions.compiled.jsonl").unlink(), "missing artifact", True),
    "empty": (lambda out: (out / "questions.compiled.jsonl").write_text("", encoding="utf-8"), "no header record", True),
}


@pytest.mark.parametrize(
    "damage, shown, stage",
    [
        pytest.param(damage, shown, stage, id=f"{name}-{stage}")
        for name, (damage, shown, by_evaluate) in _COMPILED_QUESTIONS_DAMAGE.items()
        for stage in ("candidates", "answer", "evaluate")[: 3 if by_evaluate else 2]
    ],
)
def test_stale_or_damaged_compiled_questions_exit_missing(pipeline_dir, tmp_path, capsys, damage, shown, stage):
    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    damage(tmp_path / "out")
    rc = main([stage, "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_MISSING
    assert "questions.compiled.jsonl" in err
    assert "kgrag ingest" in err
    assert shown in err
    assert "Traceback" not in err


def test_failed_stage_leaves_previous_artifact_whole(pipeline_dir, tmp_path, monkeypatch):
    from kgrag import pool as poolmod

    cfg_path = write_fixture_config(tmp_path)
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}

    def torn_writer(sink, records):
        sink.write('{"id": "q01", "paths": [')
        raise RuntimeError("writer failed")

    monkeypatch.setattr(poolmod, "write_pools", torn_writer)
    with pytest.raises(RuntimeError, match="writer failed"):
        main(["candidates", "--config", str(cfg_path)])
    after = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert after == before


@pytest.mark.parametrize(
    "override, key, shown",
    [
        ({"top_k": "abc"}, "top_k", "'abc'"),
        ({"training": {"hidden": 5}}, "training.hidden", "5"),
        ({"paths": "x"}, "paths", "'x'"),
        ({"llm": {"include_explanations": "false"}}, "llm.include_explanations", "'false'"),
    ],
    ids=["top_k-string", "hidden-int", "paths-string", "include_explanations-string"],
)
def test_wrong_typed_config_value_exits_config(tmp_path, capsys, override, key, shown):
    cfg_path = write_fixture_config(tmp_path, **override)
    rc = main(["ingest", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert f"{key} " in err
    assert shown in err


@pytest.mark.parametrize("backend", ["replay", "remote"])
def test_unreadable_replay_store_exits_config(pipeline_dir, tmp_path, capsys, backend):
    replay = tmp_path / "replay.jsonl"
    replay.write_text(
        '{"digest": "d1", "text": "[]", "usage": {}}\n{"digest": "d2", "te\n{"digest": "d3", "text": "[]"}\n',
        encoding="utf-8",
    )
    cfg_path = write_fixture_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(pipeline_dir / "out")
    cfg["paths"]["replay"] = str(replay)
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["answer", "--config", str(cfg_path), "--llm", backend])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "paths.replay" in err
    assert "line 2" in err


_LABEL = st.text(st.sampled_from("ab\u00e9 \t\n\r\x0b\x85"), max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(_LABEL, _LABEL, _LABEL), min_size=1, max_size=4))
def test_jsonl_ingest_reloads_losslessly_or_exits_config(rows):
    source = "".join(json.dumps({"h": h, "r": r, "t": t}) + "\n" for h, r, t in rows)
    valid = all(lab and lab == lab.strip() and not set(lab) & set("\t\n\r") for row in rows for lab in row)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "kg.jsonl").write_text(source, encoding="utf-8")
        (tmp / "questions.jsonl").write_text("", encoding="utf-8")
        paths = {"kg": str(tmp / "kg.jsonl"), "questions": str(tmp / "questions.jsonl")}
        cfg_path = write_fixture_config(tmp, kg_format="jsonl", paths=paths)
        rc = main(["ingest", "--config", str(cfg_path)])
        assert rc == (EXIT_OK if valid else EXIT_CONFIG)
        if rc == EXIT_OK:
            original = load_kg(io.StringIO(source), "jsonl")
            with (tmp / "out" / "graph.tsv").open(encoding="utf-8") as fh:
                reloaded = load_kg(fh, "tsv")
            assert reloaded.entities == original.entities
            assert reloaded.relations == original.relations
            assert [reloaded.triple(t) for t in range(len(reloaded.storage))] == [
                original.triple(t) for t in range(len(original.storage))
            ]


@pytest.mark.parametrize("trained, retrieved", [("triple", "entity"), ("entity", "triple")])
def test_retrieve_refuses_model_of_the_other_kind(pipeline_dir, tmp_path, capsys, trained, retrieved):
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    cfg_path = write_fixture_config(tmp_path, retrieval_level=trained, training={"epochs": 2})
    assert main(["train", "--config", str(cfg_path)]) == EXIT_OK
    write_fixture_config(tmp_path, retrieval_level=retrieved, training={"epochs": 2})
    rc = main(["retrieve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert repr(trained) in err and repr(retrieved) in err
    assert "rerun `kgrag train`" in err


@pytest.mark.parametrize("keep_inside", [False, True], ids=["only-outside", "one-outside"])
def test_supervision_outside_the_question_scope_exits_missing(pipeline_dir, tmp_path, capsys, keep_inside):
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    cfg_path = write_fixture_config(tmp_path)
    supervision = tmp_path / "out" / "supervision.jsonl"
    records = [json.loads(line) for line in supervision.read_text().splitlines()]
    for rec in records:
        if rec["question_id"] == "q06":  # scoped to four uses_currency triples
            outside = {"tids": [0], "triples": [["spain", "capital", "madrid"]]}  # line 1 of graph.tsv
            rec.update({key: column + rec[key] if keep_inside else column for key, column in outside.items()})
    supervision.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    rc = main(["train", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_MISSING
    assert "q06" in err and "spain capital madrid" in err
    assert "rerun `kgrag refine`" in err


@pytest.mark.parametrize(
    "argv, flag",
    [(["candidates", "--workers", "0"], "--workers"), (["retrieve", "--workers", "-4"], "--workers"),
     (["refine", "--limit", "-3"], "--limit")],
    ids=["workers-0", "workers-negative", "limit-negative"],
)
def test_a_flag_below_its_bound_exits_config(pipeline_dir, tmp_path, capsys, argv, flag):
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    cfg_path = write_fixture_config(tmp_path)
    before = (tmp_path / "out" / "supervision.jsonl").read_bytes()
    rc = main([*argv, "--config", str(cfg_path)])
    assert rc == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert (tmp_path / "out" / "supervision.jsonl").read_bytes() == before


def test_an_unknown_validation_id_exits_config(pipeline_dir, tmp_path, capsys):
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    cfg_path = write_fixture_config(tmp_path, validation_ids=["q01", "q99"])
    rc = main(["train", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "validation_ids" in err and "'q99'" in err and "'q01'" not in err


def test_validation_ids_of_every_question_exit_config_naming_the_cause(pipeline_dir, tmp_path, capsys):
    shutil.copytree(pipeline_dir / "out", tmp_path / "out")
    ids = [json.loads(line)["id"] for line in (tmp_path / "out" / "questions.jsonl").read_text().splitlines()]
    cfg_path = write_fixture_config(tmp_path, validation_ids=ids)
    rc = main(["train", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "validation_ids leaves no question to train on" in err
    assert "every supervision set is empty" not in err


def _questions_input(tmp_path, edit) -> Path:
    """A config whose input questions are the fixture's, with ``edit`` applied to their lines."""
    path = tmp_path / "questions-in.jsonl"
    path.write_text(edit((DATA / "fixture_questions.jsonl").read_text(encoding="utf-8")), encoding="utf-8")
    return write_fixture_config(tmp_path, paths={"questions": str(path)})


def test_ingest_refuses_a_repeated_question_id(tmp_path, capsys):
    cfg_path = _questions_input(tmp_path, _first_line_twice)
    rc = main(["ingest", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "line 2: field 'id': question 'q01' repeats" in err
    assert not (tmp_path / "out" / "questions.jsonl").exists()


def test_ingest_reports_each_unresolved_question_once(tmp_path, capsys, caplog):
    cfg_path = _questions_input(tmp_path, _set("answer_entities", ["madrid", "Nowhere"]))
    assert main(["ingest", "--config", str(cfg_path)]) == EXIT_OK
    err = capsys.readouterr().err
    assert err == "warning: question q01: unresolved labels ['Nowhere']\n"
    assert [rec.getMessage() for rec in caplog.records] == []
    # ingest writes the resolved labels only, so the next stage reads a questions.jsonl it accepts
    assert main(["candidates", "--config", str(cfg_path)]) == EXIT_OK


def test_ingest_refuses_a_question_whose_answers_are_all_unresolved(tmp_path, capsys):
    cfg_path = _questions_input(tmp_path, _set("answer_entities", ["Nowhere"]))
    rc = main(["ingest", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "line 1" in err and "question 'q01': no answer label is in the graph" in err
    assert not (tmp_path / "out" / "questions.jsonl").exists()


def test_ingest_keeps_a_question_given_no_answers(tmp_path, capsys):
    cfg_path = _questions_input(tmp_path, _set("answer_entities", []))
    assert main(["ingest", "--config", str(cfg_path)]) == EXIT_OK
    first = json.loads((tmp_path / "out" / "questions.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert first["id"] == "q01" and first["answer_entities"] == []
