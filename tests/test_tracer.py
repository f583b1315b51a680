"""The benchmark's traced launcher still finds and wraps the ops it names."""
import json
from collections import Counter
import subprocess
import sys
from pathlib import Path

from test_cli import base_config, source_env, write_config

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_runs_the_pipeline(tmp_path):
    cfg_path = write_config(tmp_path, base_config())
    counts = {}
    for stage in ("generate", "train", "sample-eval"):
        spans = tmp_path / f"{stage}.spans.json"
        result = subprocess.run(
            [sys.executable, str(TRACER), str(spans), stage, "--config", cfg_path, "--workdir", str(tmp_path / "run")],
            env=source_env(), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        counts[stage] = Counter(span[0] for span in json.loads(spans.read_text())["spans"])
    names = set().union(*counts.values())
    assert {"tensor.conv2d.fwd", "tensor.conv1d.bwd", "tensor.bn_eval.fwd"} <= names
    # The tracer names an epoch only while train_template is the innermost span;
    # base_config trains 2 warmup and 2 main epochs.
    assert (counts["train"]["lab.warmup_epoch"], counts["train"]["lab.main_epoch"]) == (2, 2)
    # sample-eval scores every draw in one call of the training-free evaluator
    assert counts["sample-eval"]["lab.evaluate_strategy"] == 1
