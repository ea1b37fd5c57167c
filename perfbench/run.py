"""kgrag benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload scoped-triple --seed 1 --seconds 50 --trace 0

Run from the repository root. The program is imported from ``src/`` and driven
through ``kgrag.cli.main`` in this process, stage by stage, on a corpus the
benchmark generates from the seed. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the layers the CLI calls and reports per-layer
metrics. The last line of standard output is one JSON object; the full record
(environment, per-pass times, artifact digests, failures) is written to
``.perfbench_out/<workload>-seed<seed>-trace<t>/results.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# One BLAS thread: the matrices are small, and on a shared machine a second
# spinning BLAS thread made stage times both slower and less steady. Set the
# variable in the environment to measure another thread count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import checks  # noqa: E402
import corpus  # noqa: E402
from tracing import Tracer, instrument, self_time_by_name, subtree_self_sums  # noqa: E402

STAGES = ["candidates", "refine", "train", "retrieve", "reorganize", "answer", "evaluate"]
LIGHT_STAGES = ["candidates", "refine", "reorganize", "answer", "evaluate"]
ARTIFACTS = {
    "ingest": ["graph.tsv", "questions.jsonl"],
    "candidates": ["pool.jsonl"],
    "refine": ["supervision.jsonl"],
    "train": ["model.json"],
    "retrieve": ["retrieval.jsonl"],
    "reorganize": ["chains.jsonl"],
    "answer": ["answers.jsonl"],
    "evaluate": ["report.json", "per_question.csv"],
}
PER_QUESTION = [
    ("pool.jsonl", "id"),
    ("supervision.jsonl", "question_id"),
    ("retrieval.jsonl", "id"),
    ("chains.jsonl", "question_id"),
    ("answers.jsonl", "id"),
]

PIPELINE = {
    "top_k": 100,
    "entity_k_bonus": 200,
    "text_dim": 64,
    "workers": 1,
    "training": {"epochs": 5, "hidden": [64, 64], "learning_rate": 0.1},
    "llm": {"backend": "mock"},
}
SIM = {"K": 3, "S": 10, "s0": 1.0, "delta0": 0.1, "max_rounds": 1500}

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "scoped-triple": {
        "shape": "scoped",
        "corpus": {"questions": 80, "scope_entities": 75, "scope_triples": 225, "relations": 60},
        "level": "triple",
        "sim": [{"N": 200, "threshold": 0.1, "trials": 150}, {"N": 400, "threshold": 0.1, "trials": 150}],
    },
    "shared-entity": {
        "shape": "shared",
        "corpus": {"questions": 24, "entities": 400, "triples": 1200, "relations": 60},
        "level": "entity",
        # threshold 0.3 can never accept at these parameters: every trial is censored
        "sim": [{"N": 200, "threshold": 0.1, "trials": 150}, {"N": 200, "threshold": 0.3, "trials": 150}],
    },
}

MIN_SETUP_REPS = 5
SETUP_SECONDS = 1.5  # ingest repeats until both minimums are met
MIN_ROUNDS = 3  # a round is one pipeline pass and one simulate repetition
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run
TRACED_SHARE = 0.8  # then traced passes until here, then one traced simulate repetition


def environment() -> dict:
    import numpy

    revision = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
    return {
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded into this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    """Runs CLI commands in this process, timing each and recording failures."""

    def __init__(self, cli, ledger: checks.Ledger, log, tracer: Tracer | None = None):
        self.cli = cli
        self.ledger = ledger
        self.log = log
        self.tracer = tracer

    def __call__(self, argv: list[str]) -> float:
        out = io.StringIO()
        rc: int | None = None
        # Each CLI stage normally starts in a fresh process; collecting what
        # the previous command left behind keeps its garbage out of this timing.
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = self.tracer.call("cli.stage_self", self.cli.main, (argv,), {})
        except Exception:
            self.log.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.log.write(f"$ kgrag {' '.join(argv)}  [{rc}] {elapsed:.4f}s\n{out.getvalue()}")
        self.ledger.check(f"kgrag {argv[0]} exits 0", rc == 0, f"exit {rc}")
        return elapsed


def digests(work: Path, stages: list[str]) -> dict[str, str | None]:
    return {name: checks.sha256_of(work / name) for s in stages for name in ARTIFACTS[s]}


def run_pass(run: Runner, config: Path, work: Path) -> dict:
    times = {stage: run([stage, "--config", str(config)]) for stage in STAGES}
    return {"stage_s": times, "sha256": digests(work, STAGES)}


def run_sim_rep(run: Runner, sim_configs: list[Path], out: Path) -> dict:
    times = [run(["simulate", "--config", str(c), "--out-dir", str(out / c.stem)]) for c in sim_configs]
    return {
        "seconds": sum(times),
        "sha256": {
            f"{c.stem}/{name}": checks.sha256_of(out / c.stem / name)
            for c in sim_configs
            for name in ("trials.csv", "summary.json")
        },
    }


def same_digests(ledger: checks.Ledger, what: str, reference: dict, other: dict) -> None:
    for name, digest in reference.items():
        ledger.check(f"{what}: {name} byte-identical", digest is not None and other.get(name) == digest)


def pipeline_metrics(passes: list[dict], n_questions: int) -> dict[str, float]:
    def med(fn) -> float:
        return statistics.median(fn(p["stage_s"]) for p in passes)

    return {
        "pipeline_s": med(lambda s: sum(s[x] for x in STAGES)),
        "train_s": med(lambda s: s["train"]),
        "retrieve_qps": med(lambda s: n_questions / s["retrieve"]),
        "light_stages_s": med(lambda s: sum(s[x] for x in LIGHT_STAGES)),
    }


def check_outputs(ledger: checks.Ledger, work: Path, gold: dict[str, set[str]], k: int) -> dict[str, float]:
    """Per-question records, independent recall and hit, and the report's own figures."""
    ids = sorted(gold)
    records = {
        name: checks.check_per_question(ledger, work / name, key, ids) for name, key in PER_QUESTION
    }
    retrieval = records["retrieval.jsonl"]
    for qid, rec in sorted(retrieval.items()):
        scores = rec.get("scores", [])
        ledger.check(
            f"retrieval {qid} holds at most {k} triples, best first",
            len(rec.get("triples", [])) == len(scores) <= k
            and all(a >= b for a, b in zip(scores, scores[1:])),
        )
    quality = {"answer_recall": checks.answer_recall(retrieval, gold)}
    try:
        report = json.loads((work / "report.json").read_text(encoding="utf-8"))
        quality["hit"] = float(report["hit"])
        quality["macro_f1"] = float(report["macro_f1"])
        rows = {str(r["id"]) for r in report["per_question"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ledger.check("report.json parses", False, str(exc))
        return {**quality, "hit": 0.0, "macro_f1": 0.0}
    ledger.check("report.json has one row per question", rows == set(ids))
    hit = checks.recomputed_hit(records["answers.jsonl"], gold)
    ledger.check("report hit matches the recomputed hit", abs(hit - quality["hit"]) < 1e-12, f"{hit} != {quality['hit']}")
    return quality


def check_sim(ledger: checks.Ledger, sim_configs: list[Path], out: Path) -> float:
    """Measured acceptance against the closed form; returns the largest gap."""
    worst = 0.0
    for path in sim_configs:
        spec = json.loads(path.read_text())
        try:
            summary = json.loads((out / path.stem / "summary.json").read_text())
            with (out / path.stem / "trials.csv").open() as fh:
                rounds = sum(int(line.split(",")[1]) for line in list(fh)[1:])
        except (OSError, ValueError, IndexError) as exc:
            ledger.check(f"simulate {path.stem} outputs parse", False, str(exc))
            continue
        gap, in_se = checks.acceptance_gap(summary, rounds)
        worst = max(worst, gap)
        ledger.check(
            f"simulate {path.stem}: acceptance within 4 standard errors of the closed form",
            in_se <= 4.0,
            f"gap {gap:.3g} = {in_se:.3g} SE",
        )
        if summary["closed_form_acceptance"] == 0.0:
            ledger.check(
                f"simulate {path.stem}: censored configuration recovers nothing",
                summary["recovered_trials"] == 0 and rounds == spec["max_rounds"] * spec["trials"],
            )
    return worst


def prepare(run_dir: Path, workload: dict, seed: int) -> tuple[Path, list[Path], dict]:
    manifest = corpus.write_corpus(run_dir / "corpus", workload["shape"], workload["corpus"], seed)
    config = {
        **PIPELINE,
        "paths": {
            "kg": str(run_dir / "corpus" / "kg.tsv"),
            "questions": str(run_dir / "corpus" / "questions.jsonl"),
            "work_dir": str(run_dir / "work"),
        },
        "retrieval_level": workload["level"],
        "seed": seed,
    }
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
    sim_paths = []
    for i, spec in enumerate(workload["sim"]):
        path = run_dir / f"sim{i}-N{spec['N']}-t{spec['threshold']}.json"
        path.write_text(json.dumps({**SIM, **spec, "seed": seed}, sort_keys=True))
        sim_paths.append(path)
    return config_path, sim_paths, manifest


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from kgrag import cli

    workload = WORKLOADS[name]
    run_dir = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    config, sim_configs, manifest = prepare(run_dir, workload, seed)
    work = run_dir / "work"
    gold = corpus.gold_answers(run_dir / "corpus" / "questions.jsonl")
    k = PIPELINE["top_k"] + (PIPELINE["entity_k_bonus"] if workload["level"] == "entity" else 0)

    # kgrag logs through the root logger; keep its warnings out of stdout
    log = (run_dir / "kgrag.log").open("w", encoding="utf-8")
    handler = logging.StreamHandler(log)
    logging.getLogger().addHandler(handler)
    logging.getLogger().setLevel(logging.WARNING)

    ledger = checks.Ledger()
    run = Runner(cli, ledger, log)
    begin = time.perf_counter()

    setup = []
    while len(setup) < MIN_SETUP_REPS or time.perf_counter() < begin + SETUP_SECONDS:
        setup.append({"seconds": run(["ingest", "--config", str(config)]), "sha256": digests(work, ["ingest"])})
    for rep in setup[1:]:
        same_digests(ledger, "repeated ingest", setup[0]["sha256"], rep["sha256"])

    passes: list[dict] = []
    sim_reps: list[dict] = []
    if traced:
        # untraced passes first, as the base for trace.overhead
        while len(passes) < 2 or time.perf_counter() < begin + UNTRACED_SHARE * seconds:
            passes.append(run_pass(run, config, work))
    else:
        # Passes and simulate repetitions alternate so that both sample the
        # whole run: on a shared machine, speed drifts over tens of seconds.
        # A round starts only if one more round of the last length still fits.
        last_round = 0.0
        while len(passes) < MIN_ROUNDS or time.perf_counter() + last_round <= begin + seconds:
            start = time.perf_counter()
            passes.append(run_pass(run, config, work))
            sim_reps.append(run_sim_rep(run, sim_configs, run_dir / "sim"))
            last_round = time.perf_counter() - start
    for p in passes[1:]:
        same_digests(ledger, "repeated pass", passes[0]["sha256"], p["sha256"])
    quality = check_outputs(ledger, work, gold, k)

    result: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": env,
        "corpus": manifest,
        "setup_s": [r["seconds"] for r in setup],
        "passes": passes,
    }
    if traced:
        tracer = Tracer()
        instrument(tracer)
        run.tracer = tracer
        try:
            values = traced_phase(
                run, tracer, config, sim_configs, work, run_dir, passes, begin + TRACED_SHARE * seconds, ledger
            )
        finally:
            tracer.restore()
            run.tracer = None
    else:
        for rep in sim_reps[1:]:
            same_digests(ledger, "repeated simulate", sim_reps[0]["sha256"], rep["sha256"])
        check_sim(ledger, sim_configs, run_dir / "sim")
        trials = sum(spec["trials"] for spec in workload["sim"])
        result["simulate_s"] = [r["seconds"] for r in sim_reps]
        values = {
            "setup_s": statistics.median(result["setup_s"]),
            **pipeline_metrics(passes, len(gold)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **quality,
            "sim_trials_per_s": statistics.median(trials / r["seconds"] for r in sim_reps),
        }
        result["artifact_sha256"] = {**setup[0]["sha256"], **passes[0]["sha256"], **sim_reps[0]["sha256"]}

    # names and units come from BENCHMARK.json, so the two cannot drift apart
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if traced else "end_to_end"]}
    ledger.check("reported metrics match BENCHMARK.json", set(values) == set(units), str(set(values) ^ set(units)))
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units if key in values}
    result["wall_s"] = time.perf_counter() - begin
    result["failures"] = ledger.failures
    summary = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    result.update(summary)
    logging.getLogger().removeHandler(handler)
    log.close()
    (run_dir / "results.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for bulky in ("corpus", "work", "sim"):
        shutil.rmtree(run_dir / bulky, ignore_errors=True)
    return summary


def traced_phase(
    run: Runner,
    tracer: Tracer,
    config: Path,
    sim_configs: list[Path],
    work: Path,
    run_dir: Path,
    untraced: list[dict],
    pass_deadline: float,
    ledger: checks.Ledger,
) -> dict[str, float]:
    """Traced passes (ingest plus the seven stages) and one traced simulate rep."""
    per_pass = []
    while len(per_pass) < 2 or time.perf_counter() < pass_deadline:
        tracer.reset()
        run(["ingest", "--config", str(config)])
        traced = run_pass(run, config, work)
        same_digests(ledger, "traced pass", untraced[0]["sha256"], traced["sha256"])
        stage_spans = [i for i, s in enumerate(tracer.spans) if s.parent is None]
        sums = subtree_self_sums(tracer.spans)
        for i in stage_spans:
            span = tracer.spans[i]
            ledger.check(
                "span self times sum to the stage's traced wall time",
                abs(sums[i] - (span.end - span.start)) <= 1e-9 * max(1.0, span.end - span.start),
            )
        per_pass.append(
            {
                "pipeline_s": sum(traced["stage_s"].values()),
                "self_s": self_time_by_name(tracer.spans),
                "counts": dict(tracer.counts),
            }
        )
    tracer.write_jsonl(run_dir / "spans.jsonl")

    tracer.reset()
    rep = run_sim_rep(run, sim_configs, run_dir / "sim")
    acceptance_gap = check_sim(ledger, sim_configs, run_dir / "sim")
    sim_self = self_time_by_name(tracer.spans)
    sim_rounds = tracer.counts["simulate.rounds"]

    def med_self(span: str) -> float:
        return statistics.median(p["self_s"].get(span, 0.0) for p in per_pass)

    counts = per_pass[-1]["counts"]
    overhead = statistics.median(p["pipeline_s"] for p in per_pass) / statistics.median(
        sum(p["stage_s"].values()) for p in untraced
    ) - 1.0
    layers = {
        f"{span}_s": med_self(span)
        for span in (
            "kg.load", "kg.questions", "kg.view", "pool.build", "llm.complete", "refiner.self",
            "retriever.features", "retriever.dde", "retriever.fwd_bwd", "retriever.forward",
            "retriever.top_k", "retriever.model_io", "reorganize.expand", "reorganize.merge",
            "reorganize.prompt", "metrics.evaluate", "metrics.extract", "cli.artifact_io", "cli.stage_self",
        )
    }
    for key in (
        "kg.graph_loads", "kg.scope_triples_resolved", "kg.views", "pool.paths", "pool.cap_hits",
        "llm.calls", "llm.prompt_tokens", "llm.completion_tokens", "llm.failures", "refiner.fallbacks",
        "retriever.dde_codes_built", "retriever.fwd_bwd_calls", "retriever.model_bytes", "reorganize.chains",
    ):
        layers[key] = counts.get(key, 0)
    layers["refiner.selected_ratio"] = counts.get("refiner.selected", 0) / max(counts.get("refiner.calls", 0), 1)
    layers["retriever.dde_used_ratio"] = counts.get("retriever.dde_codes_used", 0) / max(
        counts.get("retriever.dde_codes_built", 0), 1
    )
    layers["cli.artifact_bytes"] = sum(
        (work / n).stat().st_size for names in ARTIFACTS.values() for n in names if (work / n).is_file()
    )
    layers["simulate.search_s"] = sim_self.get("simulate.search", 0.0)
    layers["simulate.rounds"] = sim_rounds
    layers["simulate.rounds_per_s"] = sim_rounds / rep["seconds"]
    layers["simulate.acceptance_gap"] = acceptance_gap
    layers["trace.overhead"] = overhead
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kgrag" / "cli.py").is_file():
        print(f"error: no kgrag sources under {ROOT / 'src'}; run from a kgrag checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in summary["metrics"].items():
        print(f"{key:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'ops':32s} {summary['attempted']:>14d}\n{'failed_ops':32s} {summary['failed']:>14d}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
