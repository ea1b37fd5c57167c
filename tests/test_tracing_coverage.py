"""Every layer the benchmark's tracer wraps is on the path the CLI runs.

``perfbench/tracing.py`` replaces module attributes and class methods by name.
When a refactor moves a call off one of them, its per-layer metric reads zero
without any error; this test runs the fixture pipeline at both retrieval
levels, the flat-prompt answer and one simulation under the tracer, and
requires every wrapped attribute to be called and every span name recorded.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from kgrag.cli import EXIT_OK, main

from conftest import write_fixture_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer, instrument  # noqa: E402

STAGES = ("ingest", "candidates", "refine", "train", "retrieve", "reorganize", "answer", "evaluate")


class CallRecorder(Tracer):
    """A tracer that also notes which wrapped attributes were called."""

    def __init__(self) -> None:
        super().__init__()
        self.planned: dict[str, str | None] = {}  # wrapped attribute -> span name
        self.called: set[str] = set()

    def wrap(self, owner, attr, name, count=None, failures=None):
        key = f"{getattr(owner, '__name__', owner)}.{attr}"
        self.planned[key] = name

        def noted(tracer, args, kwargs, result):
            self.called.add(key)
            if count is not None:
                count(tracer, args, kwargs, result)

        super().wrap(owner, attr, name, noted, failures)


def test_every_traced_layer_is_on_the_live_path(tmp_path):
    (tmp_path / "triple").mkdir()
    (tmp_path / "entity").mkdir()
    levels = {
        "triple": write_fixture_config(tmp_path / "triple", training={"epochs": 5}),
        "entity": write_fixture_config(
            tmp_path / "entity", retrieval_level="entity", top_k=4, entity_k_bonus=4,
            training={"epochs": 5, "gnn_hidden": 8, "gnn_depth": 2},
        ),
    }
    experiment = tmp_path / "experiment.json"
    experiment.write_text(json.dumps({"N": 60, "K": 2, "S": 10, "threshold": 0.05, "max_rounds": 50, "trials": 3}))
    runs = [[stage, "--config", str(cfg)] for cfg in levels.values() for stage in STAGES]
    runs += [
        ["answer", "--config", str(levels["triple"]), "--no-reorganize"],
        ["simulate", "--config", str(experiment), "--out-dir", str(tmp_path / "sim")],
    ]
    tracer = CallRecorder()
    instrument(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in runs:
                assert main(argv) == EXIT_OK, argv
    finally:
        tracer.restore()
    assert sorted(tracer.planned.keys() - tracer.called) == []
    recorded = {span.name for span in tracer.spans}
    assert sorted({name for name in tracer.planned.values() if name} - recorded) == []
