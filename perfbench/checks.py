"""Output checks. Each check is one attempted operation; a failed one is recorded, never raised."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


class Ledger:
    """Counts attempted and failed operations and keeps a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def sha256_of(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_records(path: Path, key: str) -> tuple[dict[str, dict], list[str]]:
    """JSONL records by ``key`` plus the problems found (missing file, bad line, duplicate)."""
    if not path.is_file():
        return {}, [f"{path.name} is missing"]
    records: dict[str, dict] = {}
    problems = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.endswith("\n"):
                problems.append(f"{path.name}:{lineno}: last line is not terminated")
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{path.name}:{lineno}: {exc.msg}")
                continue
            if not isinstance(rec, dict) or key not in rec:
                problems.append(f"{path.name}:{lineno}: no {key!r} field")
                continue
            rid = str(rec[key])
            if rid in records:
                problems.append(f"{path.name}: duplicate record for {rid}")
            records[rid] = rec
    return records, problems


def check_per_question(ledger: Ledger, path: Path, key: str, ids: list[str]) -> dict[str, dict]:
    """One operation per expected question record, plus one for the file as a whole."""
    records, problems = read_records(path, key)
    ledger.check(f"{path.name} parses", not problems, "; ".join(problems[:3]))
    for qid in ids:
        ledger.check(f"{path.name} has {qid}", qid in records, "missing record")
    extra = sorted(set(records) - set(ids))
    if extra:
        ledger.check(f"{path.name} has only known ids", False, ", ".join(extra[:3]))
    return records


def answer_recall(retrieval: dict[str, dict], gold: dict[str, set[str]]) -> float:
    """Share of questions whose gold answer is an endpoint of a retrieved triple."""
    found = 0
    for qid, answers in gold.items():
        rec = retrieval.get(qid, {})
        ends = {label for h, _, t in rec.get("triples", []) for label in (h, t)}
        found += bool(ends & answers)
    return found / len(gold)


def _norm(text: str) -> str:
    return " ".join(text.casefold().split())


def recomputed_hit(answers: dict[str, dict], gold: dict[str, set[str]]) -> float:
    """Share of questions with at least one predicted answer among the gold labels."""
    hits = 0
    for qid, labels in gold.items():
        predicted = {_norm(a) for a in answers.get(qid, {}).get("answers", [])}
        hits += bool(predicted & {_norm(g) for g in labels})
    return hits / len(gold)


def acceptance_gap(summary: dict, rounds_total: int) -> tuple[float, float]:
    """(|measured − closed-form acceptance|, that gap in binomial standard errors).

    With a closed-form probability of zero any acceptance at all is an
    infinite number of standard errors away.
    """
    p = summary["closed_form_acceptance"]
    gap = abs(summary["acceptance_rate"] - p)
    se = math.sqrt(p * (1.0 - p) / rounds_total)
    if se == 0.0:
        return gap, 0.0 if gap == 0.0 else math.inf
    return gap, gap / se
