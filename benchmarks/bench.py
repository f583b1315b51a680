"""stfusion benchmark: CLI stage wall time and peak RSS, plus a traced per-layer run.

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Needs only the standard library; the program
under test runs from ``src/`` in child processes.

``--trace 0`` runs the workload's pipeline (each CLI stage as its own process,
each preceded by a ``--help`` process that measures set-up) until ``--seconds``
have passed, checks every artifact, and prints the end-to-end metrics, then
the stage times that are reported but not gated. A pass that takes longer
than ``--seconds`` is the only one: its stage times are then single samples,
and the artifacts are checked for content and against the sha256 recorded in
``benchmarks/reference.json`` (a difference there is reported as
``numerics_changed``, not as a failure). Byte identity across passes is only
checked when more than one pass fits.
``--trace 1`` runs the pipeline once untraced and once under
``benchmarks/tracer.py``, requires the two to write byte-identical artifacts
(and, on ``oracle``, ``--jobs 2`` to match ``--jobs 1``), and prints the
per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Everything a run measured is also written to
``.benchwork/<workload>-seed<N>-trace<T>/result.json``.

Thread variables (``*_NUM_THREADS``) are passed through untouched: BLAS
oversubscription in ``oracle --jobs 2`` is a defect the benchmark must show.
"""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".benchwork"
REFERENCE_FILE = BENCH_DIR / "reference.json"

RUN_LIMIT_S = 170.0       # a run must end within 180 s
STAGE_LOG = "stages.log"

# The README config, verbatim.
README_CONFIG = {
    "template": {"num_blocks": 1, "layers_per_block": 2, "growth_channels": 6,
                 "stem_channels": 6, "clip_shape": [1, 8, 12, 12], "num_classes": 4},
    "schedule": {"warmup_epochs": 5, "main_epochs": 20, "batch_size": 8,
                 "lr": 0.05, "lr_decay_epochs": [19], "seed": 1},
    "objective": {"k": 1.0},
    "data": {"mode": "temporal_only", "classes": 4, "clips_per_class": 20,
             "clip_shape": [1, 8, 12, 12], "noise_sigma": 0.05, "seed": 1,
             "train_frac": 0.5},
    "sampling": {"count": 100, "seed": 1},
}


def _variant(template=None, schedule=None, data=None, sampling=None):
    cfg = copy.deepcopy(README_CONFIG)
    for key, changes in (("template", template), ("schedule", schedule),
                         ("data", data), ("sampling", sampling)):
        cfg[key].update(changes or {})
    return cfg


PIPELINE = [("generate", ["generate"]), ("train", ["train"]),
            ("sample_eval", ["sample-eval"]), ("report", ["report"])]
ORACLE_JOBS1 = ("oracle_jobs1", ["oracle", "--jobs", "1"])
ORACLE_JOBS2 = ("oracle_jobs2", ["oracle", "--jobs", "2"])

WORKLOADS = {
    "readme": {
        "why": "README config: conv/BN-bound train; sample-eval on high-duplicate draws (24 of 100 distinct at seed 1)",
        "config": README_CONFIG,
        "stages": PIPELINE,
    },
    "deep-mixed": {
        "why": "2x3 layers, mixed, 16x16: mostly distinct draws, Transition, most gate sites, largest tape and RSS",
        "config": _variant(
            template={"num_blocks": 2, "layers_per_block": 3, "clip_shape": [1, 8, 16, 16]},
            schedule={"warmup_epochs": 2, "main_epochs": 4, "lr_decay_epochs": [5]},
            data={"mode": "mixed", "clip_shape": [1, 8, 16, 16]},
            sampling={"count": 12},
        ),
        "stages": PIPELINE,
    },
    "oracle": {
        "why": "README template and data, short schedule: many small standalone trainings, process pool, BLAS contention",
        "config": _variant(
            schedule={"warmup_epochs": 2, "main_epochs": 4, "lr_decay_epochs": [5]},
            sampling={"count": 10},
        ),
        "stages": PIPELINE + [ORACLE_JOBS1],
    },
}

# Artifacts each stage writes. Those in CHECKED_FILES must be byte-identical
# wherever the same stage runs on the same config (passes, traced vs untraced,
# --jobs 1 vs --jobs 2). weights.npz is excluded: its zip entries carry a
# timestamp.
STAGE_FILES = {
    "generate": ["dataset.stfd"],
    "train": ["gates.json", "history.json", "weights.npz"],
    "sample_eval": ["evaluations.csv", "best_strategy.json"],
    "report": ["preference.csv"],
    "oracle_jobs1": ["oracle.csv", "rho.json"],
    "oracle_jobs2": ["oracle.csv", "rho.json"],
}
CHECKED_FILES = ["dataset.stfd", "gates.json", "history.json", "evaluations.csv",
                 "best_strategy.json", "preference.csv", "oracle.csv", "rho.json"]

# Spans the traced run reports on every workload, as "<span>_s" (self time)
# and "<span>.calls". tensor.backward's self time is the tape walk.
SPANS = [
    "tensor.conv2d.fwd", "tensor.conv2d.bwd", "tensor.conv1d.fwd", "tensor.conv1d.bwd",
    "tensor.bn_train.fwd", "tensor.bn_train.bwd", "tensor.bn_eval.fwd",
    "tensor.relu.fwd", "tensor.relu.bwd", "tensor.concat.fwd", "tensor.concat.bwd",
    "tensor.pool_classify.fwd", "tensor.pool_classify.bwd", "tensor.xent.fwd", "tensor.xent.bwd",
    "tensor.elementwise.fwd", "tensor.elementwise.bwd", "tensor.sgd_step", "tensor.backward",
    "model.build_template", "model.forward_train", "model.forward_eval",
    "model.materialize", "model.recover_strategy",
    "gates.sample_concrete", "gates.sample_hard", "gates.objective",
    "data.generate", "data.save", "data.load", "data.split", "data.batches",
    "lab.train_template", "lab.warmup_epoch", "lab.main_epoch", "lab.template_accuracy",
    "lab.epoch_nll", "lab.sample_strategies", "lab.evaluate_strategy",
    "lab.write_evaluations", "lab.report",
    "cli.save_weights", "cli.load_weights",
]
# Spans only some workloads exercise. They are printed and written to
# result.json but are not in the final JSON line, which must carry the same
# metrics on every workload.
WORKLOAD_ONLY_SPANS = ["tensor.avg_pool.fwd", "tensor.avg_pool.bwd",
                       "lab.train_standalone", "lab.rank_correlation"]


def span_metric(span):
    return "tensor.backward.tape_s" if span == "tensor.backward" else span + "_s"


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def high_percentile(values):
    """(p, value) for the highest of p90/p99 with >= 10 samples beyond it."""
    best = None
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=100, method="inclusive")[p - 1])
    return best


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_for(workload, seed):
    cfg = copy.deepcopy(WORKLOADS[workload]["config"])
    for key in ("schedule", "data", "sampling"):
        cfg[key]["seed"] = seed
    return cfg


class Runner:
    """Starts CLI processes, times them, and keeps the attempted/failed tally."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir(parents=True, exist_ok=True)

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def run(self, argv, cwd, capture=False):
        """Run one process in its own session; (wall s, peak RSS MB, exit code, output).

        Peak RSS comes from this child's own wait4 rusage (the largest of the
        process and the workers it reaped), not from cumulative RUSAGE_CHILDREN.
        """
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            return 0.0, 0.0, -1, "run deadline reached before start"
        with open(self.work / STAGE_LOG, "a") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=subprocess.PIPE if capture else log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(limit, _kill_group, (proc.pid,))
            timer.start()
            try:
                # read the pipe before reaping; a full pipe would block the child
                text = proc.stdout.read().decode(errors="replace") if capture else ""
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                if capture:
                    proc.stdout.close()
                _kill_group(proc.pid)  # anything the stage left behind
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, text

    def cli(self, args, cwd, launcher=None):
        """Run one CLI stage, under ``tracer.py`` with arguments `launcher` if given."""
        if launcher is None:
            argv = [sys.executable, "-m", "stfusion.cli"] + args
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py")] + launcher + args
        self.attempted += 1
        return self.run(argv, cwd)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_outputs(stage, wd, cfg):
    """Content checks for what `stage` wrote; returns a list of problems."""
    problems = []
    layers = cfg["template"]["num_blocks"] * cfg["template"]["layers_per_block"]
    for name in STAGE_FILES[stage]:
        if not (wd / name).is_file():
            problems.append(f"{stage}: {name} missing")
    if problems:
        return problems
    try:
        if stage == "train":
            history = json.loads((wd / "history.json").read_text())
            epochs = cfg["schedule"]["warmup_epochs"] + cfg["schedule"]["main_epochs"]
            if len(history) != epochs:
                problems.append(f"history.json has {len(history)} epochs, expected {epochs}")
            if not all(0.0 <= h["val_accuracy"] <= 1.0 and math.isfinite(h["total"]) for h in history):
                problems.append("history.json has a non-finite objective or accuracy outside [0, 1]")
        elif stage == "sample_eval":
            with open(wd / "evaluations.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            if len(rows) != cfg["sampling"]["count"]:
                problems.append(f"evaluations.csv has {len(rows)} rows, expected {cfg['sampling']['count']}")
            best = json.loads((wd / "best_strategy.json").read_text())
            top = max(float(r["val_accuracy"]) for r in rows)
            if best["val_accuracy"] != top or best["strategy"]["L"] != layers:
                problems.append("best_strategy.json disagrees with evaluations.csv")
        elif stage == "report":
            with open(wd / "preference.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            if len(rows) != layers:
                problems.append(f"preference.csv has {len(rows)} rows, expected {layers}")
        elif stage.startswith("oracle"):
            with open(wd / "oracle.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            rho = json.loads((wd / "rho.json").read_text())
            if len(rows) != 3 ** layers or len(rho["oracle_accuracies"]) != 3 ** layers:
                problems.append(f"oracle outputs do not cover all {3 ** layers} strategies")
            if not -1.0 <= rho["spearman_rho"] <= 1.0:
                problems.append(f"spearman_rho {rho['spearman_rho']} outside [-1, 1]")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{stage}: unreadable output ({exc!r})")
    return problems


def artifact_hashes(wd):
    return {name: sha256(wd / name) for name in CHECKED_FILES if (wd / name).is_file()}


def compare_hashes(runner, reference, other, label):
    """Count a mismatch against the stage that wrote the differing file."""
    for name, digest in other.items():
        if name in reference and reference[name] != digest:
            stage = next(s for s, files in STAGE_FILES.items() if name in files)
            runner.fail(f"{label}: {name} differs (stage {stage})")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(runner, workload, cfg, wd, probes, spans_dir=None):
    """Run the workload's stages in `wd`; returns {stage: (wall, rss)} and probe walls.

    With `probes`, each stage is preceded by a `--help` set-up probe. A stage
    that exits non-zero or fails its check stops the pass.
    """
    wd.mkdir(parents=True)
    config_path = wd / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    stages, setup = {}, []
    for stage, args in WORKLOADS[workload]["stages"]:
        if probes:
            wall, _, code, _ = runner.cli(["--help"], wd)
            if code != 0:
                runner.fail(f"--help exited {code}")
                return stages, setup
            setup.append(wall)
        launcher = None if spans_dir is None else [str(spans_dir / f"{stage}.json")]
        wall, rss, code, _ = runner.cli(args + ["--config", str(config_path), "--workdir", str(wd)],
                                        wd, launcher)
        problems = [f"exit code {code}"] if code != 0 else check_outputs(stage, wd, cfg)
        if problems:
            runner.fail(f"{workload} {stage} in {wd.name}: {'; '.join(problems)}")
            return stages, setup
        stages[stage] = (wall, rss)
    return stages, setup


def quality(wd):
    out = {}
    if (wd / "best_strategy.json").is_file():
        out["best_val_accuracy"] = json.loads((wd / "best_strategy.json").read_text())["val_accuracy"]
    if (wd / "rho.json").is_file():
        out["spearman_rho"] = json.loads((wd / "rho.json").read_text())["spearman_rho"]
    return out


def distinct_draws(wd):
    with open(wd / "evaluations.csv", newline="") as f:
        rows = [r["strategy_json"] for r in csv.DictReader(f)]
    return len(rows), len(set(rows))


def numerics_check(workload, seed, hashes):
    """Compare artifact hashes with the committed reference for this workload and seed."""
    if not REFERENCE_FILE.is_file():
        return "unknown (no reference file)"
    entry = json.loads(REFERENCE_FILE.read_text()).get("workloads", {}).get(workload, {})
    refs = entry.get("references", {})
    ref = refs.get(str(seed))
    if ref is None:
        return f"unknown (no reference for seed {seed})"
    changed = sorted(n for n, d in hashes.items() if ref["sha256"].get(n) not in (None, d))
    return "numerics_changed: " + ", ".join(changed) if changed else "numerics unchanged"


def machine_block(runner):
    probe = (
        "import json, sys, numpy, stfusion\n"
        "deps = numpy.show_config(mode='dicts').get('Build Dependencies', {})\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'blas': deps.get('blas', {}), 'stfusion_file': stfusion.__file__}))\n"
    )
    _, _, code, text = runner.run([sys.executable, "-c", probe], ROOT, capture=True)
    if code != 0:
        raise SystemExit(f"bench: cannot import stfusion from {SRC}:\n{text}")
    info = json.loads(text.strip().splitlines()[-1])
    imported = Path(info["stfusion_file"]).resolve()
    if not imported.is_relative_to(SRC):
        raise SystemExit(f"bench: stfusion imported from {imported}, not {SRC}")
    info["stfusion_file"] = str(imported.relative_to(ROOT))
    blas = info.pop("blas")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **info,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(runner, workload, seed, seconds, result):
    cfg = config_for(workload, seed)
    passes, setup = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        wd = runner.work / f"pass{len(passes)}"
        stages, probe_walls = run_pass(runner, workload, cfg, wd, probes=True)
        setup += probe_walls
        if len(stages) < len(WORKLOADS[workload]["stages"]):
            break
        passes.append((wd, stages))
        if passes[0][0] != wd:
            compare_hashes(runner, artifact_hashes(passes[0][0]), artifact_hashes(wd), wd.name)
        pass_s = time.perf_counter() - pass_start
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or runner.deadline - time.monotonic() < 1.5 * pass_s:
            break

    metrics = {}
    if passes and runner.failed == 0:
        def stage_median(stage, index):
            return median([p[1][stage][index] for p in passes])

        metrics = {
            "setup_s": (median(setup), "s"),
            "train_s": (stage_median("train", 0), "s"),
            "sample_eval_s": (stage_median("sample_eval", 0), "s"),
            "pipeline_s": (median([sum(w for w, _ in p[1].values()) for p in passes]), "s"),
            "train_peak_rss_mb": (stage_median("train", 1), "MB"),
            "sample_eval_peak_rss_mb": (stage_median("sample_eval", 1), "MB"),
        }
        # Printed and recorded, but not gated: generate and report are ~1 s
        # of interpreter start-up each (see setup_s), too noisy to bound.
        not_gated = {}
        for stage in passes[0][1]:
            not_gated[f"{stage}_s"] = stage_median(stage, 0)
            not_gated[f"{stage}_peak_rss_mb"] = stage_median(stage, 1)
        result["not_gated"] = {k: v for k, v in not_gated.items() if k not in metrics}
        result["samples"] = {"setup_s": setup}
        wd = passes[0][0]
        result["sha256"] = artifact_hashes(wd)
        result["quality"] = quality(wd)
        result["draws"], result["distinct_draws"] = distinct_draws(wd)
        result["numerics"] = numerics_check(workload, seed, result["sha256"])
    result["passes"] = len(passes)
    return metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def summarize_spans(path):
    """Per-call self times by span name, root-span coverage, and the trace document."""
    doc = json.loads(Path(path).read_text())
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name, covered = {}, 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        by_name.setdefault(name, []).append(end - start - child_time[i])
        if parent < 0:
            covered += end - start
    return by_name, covered, doc


def import_times(runner):
    """(stfusion.cli import s, scipy share s) from `python -X importtime`."""
    probe = [sys.executable, "-X", "importtime", "-c", "import stfusion.cli"]
    cli_s, scipy_s = [], []
    for _ in range(3):
        runner.attempted += 1
        _, _, code, text = runner.run(probe, runner.work, capture=True)
        if code != 0:
            runner.fail(f"importtime probe exited {code}")
            return 0.0, 0.0
        # importtime prints a module after its imports, indented one step
        # deeper, so reading backwards the parent is the last line seen one
        # level up. scipy's share is every scipy module a non-scipy one imports.
        parents, cli, scipy = {}, 0.0, 0.0
        for line in reversed(text.splitlines()):
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            name = name.strip()
            parents[depth] = name
            seconds = int(cumulative) / 1e6
            if name == "stfusion.cli":
                cli += seconds
            if name.split(".")[0] == "scipy" and parents.get(depth - 1, "").split(".")[0] != "scipy":
                scipy += seconds
        cli_s.append(cli)
        scipy_s.append(scipy)
    return median(cli_s), median(scipy_s)


def per_layer(runner, workload, seed, result):
    cfg = config_for(workload, seed)
    untraced, _ = run_pass(runner, workload, cfg, runner.work / "untraced", probes=False)
    stages = WORKLOADS[workload]["stages"]
    if len(untraced) < len(stages):
        return {}
    reference = artifact_hashes(runner.work / "untraced")
    extra = {}
    if workload == "oracle":
        jobs2 = runner.work / "jobs2"
        jobs2.mkdir()
        for name in ("config.json", "dataset.stfd", "weights.npz"):
            shutil.copy(runner.work / "untraced" / name, jobs2 / name)
        # untraced but for a counter of the bytes pickled for the workers
        stage, args = ORACLE_JOBS2
        shipped = jobs2 / "pickled.json"
        wall, rss, code, _ = runner.cli(args + ["--config", str(jobs2 / "config.json"),
                                                "--workdir", str(jobs2)], jobs2,
                                        ["--no-spans", str(shipped)])
        problems = [f"exit code {code}"] if code != 0 else check_outputs(stage, jobs2, cfg)
        if problems:
            runner.fail(f"oracle --jobs 2: {'; '.join(problems)}")
            return {}
        compare_hashes(runner, reference, artifact_hashes(jobs2), "oracle --jobs 2 vs --jobs 1")
        jobs1 = untraced["oracle_jobs1"][0]
        extra.update({
            "cli.oracle_jobs1_s": (jobs1, "s"),
            "cli.oracle_jobs2_s": (wall, "s"),
            "cli.oracle_peak_rss_mb": (rss, "MB"),
            "cli.oracle_parallel_speedup": (jobs1 / wall, "ratio"),
            "cli.oracle_task_bytes": (json.loads(shipped.read_text())["pickled_bytes"], "bytes"),
        })

    spans_dir = runner.work / "spans"
    spans_dir.mkdir()
    traced, _ = run_pass(runner, workload, cfg, runner.work / "traced", probes=False,
                         spans_dir=spans_dir)
    if len(traced) < len(stages):
        return {}
    compare_hashes(runner, reference, artifact_hashes(runner.work / "traced"), "traced vs untraced")

    self_times, counters = {}, {"conv_madds": 0, "conv_window_bytes": 0,
                                "backward_nodes": [], "forward_madds_per_clip": 0}
    stage_rows = {}
    for stage, _ in stages:
        by_name, covered, doc = summarize_spans(spans_dir / f"{stage}.json")
        stage_counters = doc["counters"]
        for name, values in by_name.items():
            self_times.setdefault(name, []).extend(values)
        counters["conv_madds"] += stage_counters["conv_madds"]
        counters["conv_window_bytes"] += stage_counters["conv_window_bytes"]
        counters["backward_nodes"] += stage_counters["backward_nodes"]
        counters["forward_madds_per_clip"] = max(counters["forward_madds_per_clip"],
                                                 stage_counters["forward_madds_per_clip"])
        traced_wall, untraced_wall = traced[stage][0], untraced[stage][0]
        # Overhead is the measured cost of one span times the span count:
        # traced minus untraced wall time is kept for reference, but the two
        # runs differ by seconds of noise, more than the tracer costs.
        stage_rows[stage] = {
            "untraced_s": untraced_wall,
            "traced_s": traced_wall,
            "traced_minus_untraced_s": traced_wall - untraced_wall,
            "spans": len(doc["spans"]),
            "span_cost_us": doc["span_cost_s"] * 1e6,
            "overhead_s": doc["span_cost_s"] * len(doc["spans"]),
            "unattributed_s": traced_wall - covered,
        }

    metrics = {}
    for span in SPANS:
        values = self_times.get(span, [])
        metrics[span_metric(span)] = (sum(values), "s")
        metrics[span + ".calls"] = (len(values), "count")
    untraced_wd = runner.work / "untraced"
    draws, distinct = distinct_draws(untraced_wd)
    cli_import, scipy_import = import_times(runner)
    metrics.update({
        "tensor.backward.nodes_per_step": (median(counters["backward_nodes"]), "count"),
        "tensor.conv.madds": (counters["conv_madds"], "count"),
        "tensor.conv.window_bytes": (counters["conv_window_bytes"], "bytes"),
        "model.mult_adds_per_clip": (counters["forward_madds_per_clip"], "count"),
        "data.file_bytes": ((untraced_wd / "dataset.stfd").stat().st_size, "bytes"),
        "lab.strategies_evaluated": (draws, "count"),
        "lab.distinct_strategies": (distinct, "count"),
        "lab.distinct_share": (distinct / draws, "ratio"),
        "cli.weights_bytes": ((untraced_wd / "weights.npz").stat().st_size, "bytes"),
        "cli.import_s": (cli_import, "s"),
        "cli.import_scipy_s": (scipy_import, "s"),
        "trace.overhead_s": (sum(r["overhead_s"] for r in stage_rows.values()), "s"),
        "trace.unattributed_s": (sum(r["unattributed_s"] for r in stage_rows.values()), "s"),
    })

    for span in WORKLOAD_ONLY_SPANS:
        if span in self_times:
            extra[span_metric(span)] = (sum(self_times[span]), "s")
            extra[span + ".calls"] = (len(self_times[span]), "count")
    for stage, row in stage_rows.items():
        extra[f"trace.overhead.{stage}_s"] = (row["overhead_s"], "s")
        extra[f"trace.unattributed.{stage}_s"] = (row["unattributed_s"], "s")

    per_call = {}
    for name, values in sorted(self_times.items()):
        row = {"calls": len(values), "self_s": sum(values), "median_ms": median(values) * 1e3}
        high = high_percentile(values)
        if high:
            row[f"p{high[0]}_ms"] = high[1] * 1e3
        per_call[name] = row
    result.update({
        "stage_trace": stage_rows,
        "per_call": per_call,
        "workload_only": {k: v[0] for k, v in extra.items()},
        "computed_counts": ["tensor.backward.nodes_per_step", "tensor.conv.madds",
                            "tensor.conv.window_bytes", "model.mult_adds_per_clip",
                            "data.file_bytes", "lab.strategies_evaluated",
                            "lab.distinct_strategies", "cli.weights_bytes"],
        "sha256": reference,
        "quality": quality(untraced_wd),
        "numerics": numerics_check(workload, seed, reference),
    })
    print("per-call self time (traced run):")
    for name, row in per_call.items():
        tail = "".join(f" {k}={v:.4f}" for k, v in row.items() if k.startswith("p"))
        print(f"  {name:28s} calls={row['calls']:7d} self={row['self_s']:9.4f} s"
              f" median={row['median_ms']:.4f} ms{tail}")
    print("per-stage tracing cost:")
    for stage, row in stage_rows.items():
        print("  " + stage + "".join(f" {k}={v:.4f}" for k, v in row.items()))
    for name, (value, unit) in extra.items():
        print(f"workload-only {name} = {value} {unit}")
    return metrics


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "stfusion" / "cli.py").is_file():
        print(f"bench: {SRC / 'stfusion'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    machine = machine_block(runner)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": config_for(args.workload, args.seed), "machine": machine}
    print("machine: " + json.dumps(machine, sort_keys=True))
    # untimed: fills the bytecode and page caches a fresh checkout lacks
    runner.run([sys.executable, "-m", "stfusion.cli", "--help"], work)

    if args.trace:
        metrics = per_layer(runner, args.workload, args.seed, result)
    else:
        metrics = end_to_end(runner, args.workload, args.seed, args.seconds, result)
    correct = runner.failed == 0 and bool(metrics)
    if not metrics and runner.failed == 0:
        runner.fail("no metrics measured")

    if "samples" in result:
        print(f"medians over {result['passes']} pass(es); setup_s over {len(result['samples']['setup_s'])} probes")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for name, value in result.get("not_gated", {}).items():
        print(f"not gated: {name} = {value} {'MB' if name.endswith('_mb') else 's'}")
    for key in ("numerics", "quality", "draws", "distinct_draws"):
        if key in result:
            print(f"{key}: {result[key]}")
    result.update({"metrics": {k: v[0] for k, v in metrics.items()}, "errors": runner.errors,
                   "attempted": runner.attempted, "failed": runner.failed})
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
