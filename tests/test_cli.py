import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kgrag.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_OK,
    main,
)

from conftest import write_fixture_config

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


def test_full_pipeline_metrics(pipeline_dir):
    report = json.loads((pipeline_dir / "out" / "report.json").read_text())
    assert report["hit"] == 1.0
    assert report["hit_at_1"] >= 10 / 12
    assert (pipeline_dir / "out" / "per_question.csv").exists()


def test_all_artifacts_written(pipeline_dir):
    out = pipeline_dir / "out"
    for name in (
        "graph.tsv",
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


def test_workers_flag_preserves_output_bytes(pipeline_dir, tmp_path):
    cfg_path = write_fixture_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["paths"]["work_dir"] = str(pipeline_dir / "out")
    cfg_path.write_text(json.dumps(cfg))
    path = pipeline_dir / "out" / "retrieval.jsonl"
    before = path.read_bytes()
    assert main(["retrieve", "--config", str(cfg_path), "--workers", "4"]) == EXIT_OK
    assert path.read_bytes() == before


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
    assert all(rec["k"] == 8 for rec in retrieval)


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

    with (pipeline_dir / "out" / "chains.jsonl").open() as fh:
        chains_by_q = read_chains(fh)
    questions = [
        json.loads(line)
        for line in (pipeline_dir / "out" / "questions.jsonl").read_text().splitlines()
    ]
    store = ReplayStore(tmp_path / "replay.jsonl")
    for q in questions:
        built = build_qa_prompt(q["question"], chains_by_q.get(q["id"], []))
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
