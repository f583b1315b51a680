import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from stfusion import cli
from stfusion import data as D
from stfusion import lab as L
from stfusion.config import load_run_config
from stfusion.gates import GateParams
from stfusion.lab import PreferenceReport
from stfusion.model import TemplateNetwork
from conftest import clip_datasets_equal, evaluate_one


def base_config(**overrides):
    cfg = {
        "template": {
            "num_blocks": 1,
            "layers_per_block": 2,
            "growth_channels": 4,
            "stem_channels": 4,
            "clip_shape": [1, 4, 8, 8],
            "num_classes": 2,
        },
        "schedule": {
            "warmup_epochs": 2,
            "main_epochs": 2,
            "batch_size": 8,
            "lr": 0.03,
            "lr_decay_epochs": [3],
            "seed": 1,
        },
        "objective": {"k": 1.0},
        "data": {
            "mode": "temporal_only",
            "classes": 2,
            "clips_per_class": 8,
            "clip_shape": [1, 4, 8, 8],
            "noise_sigma": 0.0,
            "seed": 1,
            "train_frac": 0.5,
        },
        "sampling": {"count": 6, "seed": 1},
    }
    cfg.update(overrides)
    return cfg


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _keep_one_clip_per_class(path):
    ds = D.load(path)
    first = np.unique(ds.labels, return_index=True)[1]
    D.save(D.ClipDataset(clips=ds.clips[first], labels=ds.labels[first], manifest=ds.manifest), path)


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def invoke(runner, args):
    return runner.invoke(cli.main, args, catch_exceptions=False)


class TestGenerate:
    def test_writes_dataset(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        wd = tmp_path / "run"
        result = invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == 0
        ds = D.load(wd / cli.DATASET_FILE)
        assert len(ds) == 16

    def test_seed_override_changes_data(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        wd1, wd2 = tmp_path / "a", tmp_path / "b"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd1)])
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd2), "--seed", "99"])
        a = D.load(wd1 / cli.DATASET_FILE)
        b = D.load(wd2 / cli.DATASET_FILE)
        assert not clip_datasets_equal(a, b)

    def test_missing_field_exit_2(self, runner, tmp_path):
        cfg = base_config()
        del cfg["template"]["growth_channels"]
        cfg_path = write_config(tmp_path, cfg)
        result = runner.invoke(cli.main, ["generate", "--config", cfg_path, "--workdir", str(tmp_path / "run")])
        assert result.exit_code == cli.EXIT_CONFIG
        assert "template.growth_channels" in result.output

    def test_missing_num_blocks_exit_2(self, runner, tmp_path):
        cfg = base_config()
        del cfg["template"]["num_blocks"]
        cfg_path = write_config(tmp_path, cfg)
        result = runner.invoke(cli.main, ["generate", "--config", cfg_path, "--workdir", str(tmp_path / "run")])
        assert result.exit_code == cli.EXIT_CONFIG
        assert "missing config field: template.num_blocks" in result.output

    def test_mismatched_shapes_exit_2(self, runner, tmp_path):
        cfg = base_config()
        cfg["data"]["clip_shape"] = [1, 8, 8, 8]
        cfg_path = write_config(tmp_path, cfg)
        result = runner.invoke(cli.main, ["generate", "--config", cfg_path, "--workdir", str(tmp_path / "run")])
        assert result.exit_code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section, value", [
        ("schedule", []), ("schedule", [1]), ("sampling", ""), ("objective", []), ("schedule", "lr"),
    ])
    def test_section_not_an_object_exit_2(self, runner, tmp_path, section, value):
        cfg_path = write_config(tmp_path, base_config(**{section: value}))
        result = runner.invoke(cli.main, ["generate", "--config", cfg_path, "--workdir", str(tmp_path / "run")])
        assert result.exit_code == cli.EXIT_CONFIG
        assert result.output.splitlines() == [f"config error: config section {section} must be a JSON object"]

    @pytest.mark.parametrize("section, key, value, message", [
        ("schedule", "batch_size", 0, "batch_size must be >= 1, got 0"),
        ("data", "clips_per_class", 1, "clips_per_class must be >= 2, got 1"),
        ("schedule", "warmup_epochs", -1, "epoch counts must be >= 0"),
        ("template", "kernel_sizes", [3, 3, 5], "spatial kernels must be square (kh == kw), got (3, 3, 5)"),
    ], ids=["batch-size-0", "one-clip-per-class", "negative-epochs", "non-square-kernel"])
    def test_impossible_config_exit_2(self, runner, tmp_path, section, key, value, message):
        cfg = base_config()
        cfg[section][key] = value
        cfg_path = write_config(tmp_path, cfg)
        result = runner.invoke(cli.main, ["generate", "--config", cfg_path, "--workdir", str(tmp_path / "run")])
        assert result.exit_code == cli.EXIT_CONFIG
        assert result.output.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "run" / cli.DATASET_FILE).exists()

    def test_unreadable_config_exit_2(self, runner, tmp_path):
        result = runner.invoke(cli.main, ["generate", "--config", str(tmp_path / "nope.json"),
                                          "--workdir", str(tmp_path / "run")])
        assert result.exit_code == cli.EXIT_CONFIG


class TestTrain:
    def test_artifacts_and_history(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        wd = tmp_path / "run"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        result = invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == 0
        for name in (cli.WEIGHTS_FILE, cli.GATES_FILE, cli.HISTORY_FILE):
            assert (wd / name).exists()
        history = json.loads((wd / cli.HISTORY_FILE).read_text())
        assert [h["phase"] for h in history] == ["warmup", "warmup", "main", "main"]

    def test_warmup_only_when_main_zero(self, runner, tmp_path):
        cfg = base_config()
        cfg["schedule"]["main_epochs"] = 0
        cfg_path = write_config(tmp_path, cfg)
        wd = tmp_path / "run"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
        history = json.loads((wd / cli.HISTORY_FILE).read_text())
        assert all(h["phase"] == "warmup" for h in history) and len(history) == 2

    def test_rerun_history_byte_identical(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        wd = tmp_path / "run"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
        first = (wd / cli.HISTORY_FILE).read_bytes()
        invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
        assert (wd / cli.HISTORY_FILE).read_bytes() == first

    def test_missing_dataset_exit_4(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        result = runner.invoke(cli.main, ["train", "--config", cfg_path, "--workdir", str(tmp_path / "empty")])
        assert result.exit_code == cli.EXIT_MISSING
        assert "missing artifact" in result.output


class TestSampleEvalAndReport:
    @pytest.fixture
    def trained(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        wd = tmp_path / "run"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
        return cfg_path, wd

    def test_sample_eval_outputs(self, runner, trained):
        cfg_path, wd = trained
        result = invoke(runner, ["sample-eval", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == 0
        with open(wd / cli.EVALS_FILE) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 6
        accs = [float(r["val_accuracy"]) for r in rows]
        assert accs == sorted(accs, reverse=True)
        best = json.loads((wd / cli.BEST_FILE).read_text())
        assert best["val_accuracy"] == accs[0]

    def test_sample_eval_missing_weights_exit_4(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        wd = tmp_path / "run"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        result = runner.invoke(cli.main, ["sample-eval", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == cli.EXIT_MISSING

    def test_report_rows(self, runner, trained):
        cfg_path, wd = trained
        invoke(runner, ["sample-eval", "--config", cfg_path, "--workdir", str(wd)])
        result = invoke(runner, ["report", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == 0
        with open(wd / cli.PREFERENCE_FILE) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert list(rows[0]) == PreferenceReport.CSV_HEADER
        for r in rows:
            total = sum(float(r[k]) for k in ("freq_S", "freq_ST", "freq_SST", "freq_skip"))
            assert abs(total - 1.0) < 1e-12
            assert abs(float(r["eq7_S"]) - (1 - float(r["p_S"]) ** 0.5)) < 1e-12

    def test_sample_eval_matches_per_draw_reference(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config(sampling={"count": 30, "seed": 1}))
        wd = tmp_path / "run"
        for stage in ("generate", "train", "sample-eval"):
            invoke(runner, [stage, "--config", cfg_path, "--workdir", str(wd)])
        cfg = load_run_config(cfg_path)
        _, val = D.split(D.load(wd / cli.DATASET_FILE), cfg.data.train_frac, cfg.data.seed)
        net = TemplateNetwork(cfg.template, seed=cfg.schedule.seed)
        cli._load_weights(net, wd / cli.WEIGHTS_FILE)
        draws = L.sample_strategies(GateParams.load(wd / cli.GATES_FILE), cfg.sampling.count,
                                    np.random.default_rng(cfg.sampling.seed))
        assert len(set(draws)) < len(draws)
        L.write_evaluations_csv([evaluate_one(net, s, val) for s in draws], tmp_path / "reference.csv")
        assert (wd / cli.EVALS_FILE).read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_recalibrated_sample_eval_matches_per_draw_reference(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config(sampling={"count": 30, "seed": 1, "recalibrate_bn": True}))
        wd = tmp_path / "run"
        for stage in ("generate", "train", "sample-eval"):
            invoke(runner, [stage, "--config", cfg_path, "--workdir", str(wd)])
        cfg = load_run_config(cfg_path)
        train, val = D.split(D.load(wd / cli.DATASET_FILE), cfg.data.train_frac, cfg.data.seed)
        net = TemplateNetwork(cfg.template, seed=cfg.schedule.seed)
        cli._load_weights(net, wd / cli.WEIGHTS_FILE)
        draws = L.sample_strategies(GateParams.load(wd / cli.GATES_FILE), cfg.sampling.count,
                                    np.random.default_rng(cfg.sampling.seed))
        assert len(set(draws)) < len(draws)
        L.write_evaluations_csv([evaluate_one(net, s, val, recalibrate=train) for s in draws],
                                tmp_path / "reference.csv")
        assert (wd / cli.EVALS_FILE).read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_best_strategy_of_another_template_exit_6(self, runner, trained):
        cfg_path, wd = trained
        invoke(runner, ["sample-eval", "--config", cfg_path, "--workdir", str(wd)])
        best = json.loads((wd / cli.BEST_FILE).read_text())
        best["strategy"]["L"] = 1
        best["strategy"]["layers"] = best["strategy"]["layers"][:1]
        (wd / cli.BEST_FILE).write_text(json.dumps(best))
        result = runner.invoke(cli.main, ["report", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == cli.EXIT_MISMATCH
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("artifact does not match config: "), result.output
        assert "strategy has 1 layers, template has 2" in lines[0]
        assert not (wd / cli.PREFERENCE_FILE).exists()

    @pytest.mark.parametrize("artifact, corrupt, message", [
        (cli.BEST_FILE, lambda obj: obj["strategy"]["layers"][1].update(u="T"),
         "strategy layer 2 has unknown unit 'T'"),
        (cli.GATES_FILE, lambda obj: obj.update(layers=obj["layers"][:1]),
         "gates JSON lists 1 layers but edge_counts has 2"),
        (cli.GATES_FILE, lambda obj: obj.update(edge_counts=[1, 1]),
         "gates JSON edge_counts [1, 1] do not follow from its blocks [1, 2], which give [1, 2]"),
        (cli.GATES_FILE, lambda obj: obj["layers"][0].update(p_S=2.0),
         "gates JSON layer 1 has p_S 2.0, outside [0, 1]"),
        (cli.GATES_FILE, lambda obj: obj["layers"][1].update(p_edge=-3.0),
         "gates JSON layer 2 has p_edge -3.0, outside [0, 1]"),
        (cli.GATES_FILE, lambda obj: obj["layers"][1].update(p_ST=float("nan")),
         "gates JSON layer 2 has p_ST nan, outside [0, 1]"),
    ], ids=["unknown-unit", "gates-missing-a-layer", "edge-counts-not-from-blocks", "p-S-above-one",
            "p-edge-below-zero", "p-ST-nan"])
    def test_malformed_artifact_exit_6(self, runner, trained, artifact, corrupt, message):
        cfg_path, wd = trained
        invoke(runner, ["sample-eval", "--config", cfg_path, "--workdir", str(wd)])
        obj = json.loads((wd / artifact).read_text())
        corrupt(obj)
        (wd / artifact).write_text(json.dumps(obj))
        result = runner.invoke(cli.main, ["report", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == cli.EXIT_MISMATCH
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("artifact does not match config: "), result.output
        assert message in lines[0]
        assert not (wd / cli.PREFERENCE_FILE).exists()

    @pytest.mark.parametrize("stage, artifact, corrupt, message, output", [
        ("report", cli.GATES_FILE, lambda path: _edit_json(path, lambda obj: obj.pop("tau")),
         "missing key 'tau'", cli.PREFERENCE_FILE),
        ("report", cli.GATES_FILE, lambda path: path.write_text("{"),
         "Expecting property name", cli.PREFERENCE_FILE),
        ("report", cli.BEST_FILE, lambda path: _edit_json(path, lambda obj: obj["strategy"].pop("layers")),
         "missing key 'layers'", cli.PREFERENCE_FILE),
        ("sample-eval", cli.DATASET_FILE, lambda path: path.write_bytes(path.read_bytes()[:2000]),
         "truncated", cli.EVALS_FILE),
        ("sample-eval", cli.WEIGHTS_FILE, lambda path: path.write_bytes(path.read_bytes()[:100]),
         "not a zip file", cli.EVALS_FILE),
        ("sample-eval", cli.WEIGHTS_FILE, lambda path: path.write_bytes(b""), "No data left in file", cli.EVALS_FILE),
        ("report", cli.GATES_FILE, lambda path: path.write_text("[]"), "list indices", cli.PREFERENCE_FILE),
        ("sample-eval", cli.DATASET_FILE, _keep_one_clip_per_class, "has 1 clips, cannot split", cli.EVALS_FILE),
    ], ids=["gates-without-tau", "gates-not-json", "best-without-layers", "dataset-truncated",
            "weights-truncated", "weights-empty", "gates-not-an-object", "dataset-one-clip-per-class"])
    def test_unreadable_artifact_exit_6(self, runner, trained, stage, artifact, corrupt, message, output):
        cfg_path, wd = trained
        invoke(runner, ["sample-eval", "--config", cfg_path, "--workdir", str(wd)])
        (wd / cli.EVALS_FILE).unlink()
        corrupt(wd / artifact)
        result = runner.invoke(cli.main, [stage, "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == cli.EXIT_MISMATCH
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"artifact does not match config: {wd / artifact}: "), \
            result.output
        assert message in lines[0]
        assert not (wd / output).exists()

    @pytest.mark.parametrize("stage", ["sample-eval", "report"])
    def test_gates_of_another_template_exit_6(self, runner, trained, stage):
        cfg_path, wd = trained
        invoke(runner, ["sample-eval", "--config", cfg_path, "--workdir", str(wd)])
        GateParams(blocks=(1, 1)).save(wd / cli.GATES_FILE)
        result = runner.invoke(cli.main, [stage, "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == cli.EXIT_MISMATCH
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("artifact does not match config: "), result.output
        assert "edge_counts [1]; template expects blocks [1, 2], edge_counts [1, 2]" in lines[0]

    @pytest.mark.parametrize("data, clip_shape, message", [
        ({"noise_sigma": 0.5, "clips_per_class": 6}, None,
         "generated with clips_per_class 8, noise_sigma 0.0; config has clips_per_class 6, noise_sigma 0.5"),
        ({"clip_shape": [1, 8, 8, 8]}, [1, 8, 8, 8],
         "generated with clip_shape [1, 4, 8, 8]; config has clip_shape [1, 8, 8, 8]"),
        ({"seed": 2}, None, "generated with seed 1; config has seed 2"),
    ], ids=["noise-and-size", "clip-shape", "seed"])
    def test_stale_dataset_exit_6(self, runner, trained, tmp_path, data, clip_shape, message):
        _, wd = trained
        cfg = base_config()
        cfg["data"].update(data)
        if clip_shape is not None:
            cfg["template"]["clip_shape"] = clip_shape
        changed = write_config(tmp_path, cfg, name="changed.json")
        result = runner.invoke(cli.main, ["sample-eval", "--config", changed, "--workdir", str(wd)])
        assert result.exit_code == cli.EXIT_MISMATCH
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"artifact does not match config: {wd / cli.DATASET_FILE}: "), \
            result.output
        assert message in lines[0]
        assert not (wd / cli.EVALS_FILE).exists()

    def test_report_missing_best_exit_4(self, runner, trained):
        cfg_path, wd = trained
        result = runner.invoke(cli.main, ["report", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == cli.EXIT_MISSING


@pytest.mark.parametrize("stage", ["sample-eval", "oracle"])
def test_weights_of_another_template_exit_6(runner, tmp_path, stage):
    cfg = base_config()
    cfg["template"]["growth_channels"] = 3
    cfg["template"]["layers_per_block"] = 1
    cfg["schedule"]["main_epochs"] = 0
    cfg_path = write_config(tmp_path, cfg)
    wd = tmp_path / "run"
    invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
    invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
    cfg["template"]["growth_channels"] = 5
    wider = write_config(tmp_path, cfg, name="wider.json")
    result = runner.invoke(cli.main, [stage, "--config", wider, "--workdir", str(wd)])
    assert result.exit_code == cli.EXIT_MISMATCH
    lines = result.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("artifact does not match config: "), result.output
    assert "layer1/S/conv2d" in lines[0]


class TestOracle:
    def test_single_layer_oracle(self, runner, tmp_path):
        cfg = base_config()
        cfg["template"]["layers_per_block"] = 1
        cfg["schedule"]["warmup_epochs"] = 1
        cfg["schedule"]["main_epochs"] = 1
        cfg_path = write_config(tmp_path, cfg)
        wd = tmp_path / "run"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
        result = invoke(runner, ["oracle", "--config", cfg_path, "--workdir", str(wd)])
        assert result.exit_code == 0
        with open(wd / cli.ORACLE_FILE) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3  # one line per single-layer fusion unit
        rho = json.loads((wd / cli.RHO_FILE).read_text())
        assert -1.0 <= rho["spearman_rho"] <= 1.0
        assert len(rho["oracle_accuracies"]) == 3

    def test_jobs_2_matches_jobs_1(self, runner, tmp_path):
        cfg = base_config()
        cfg["template"]["layers_per_block"] = 1
        cfg["schedule"]["warmup_epochs"] = 1
        cfg["schedule"]["main_epochs"] = 1
        cfg_path = write_config(tmp_path, cfg)
        wd = tmp_path / "run"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
        outputs = []
        for jobs in ("1", "2"):
            result = invoke(runner, ["oracle", "--config", cfg_path, "--workdir", str(wd), "--jobs", jobs])
            assert result.exit_code == 0
            outputs.append([(wd / name).read_bytes() for name in (cli.ORACLE_FILE, cli.RHO_FILE)])
        assert outputs[0] == outputs[1]

    def test_divergence_exit_3_at_any_jobs(self, runner, tmp_path):
        cfg_path = write_config(tmp_path, base_config())
        wd = tmp_path / "run"
        invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
        invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
        cfg = base_config()
        cfg["schedule"]["lr"] = 1e300
        oracle_path = write_config(tmp_path, cfg, name="oracle.json")
        messages = []
        for jobs in ("1", "2"):
            result = runner.invoke(cli.main, ["oracle", "--config", oracle_path, "--workdir", str(wd), "--jobs", jobs])
            assert result.exit_code == cli.EXIT_DIVERGED, result.output
            lines = result.output.splitlines()
            assert len(lines) == 1 and lines[0].startswith("oracle training diverged: "), result.output
            messages.append(lines[0])
        assert messages[0] == messages[1]

    def test_size_guard_exit_5(self, runner, tmp_path):
        cfg = base_config()
        cfg["template"]["layers_per_block"] = 11  # 3^11 strategies trips the guard
        cfg_path = write_config(tmp_path, cfg)
        result = runner.invoke(cli.main, ["oracle", "--config", cfg_path, "--workdir", str(tmp_path / "run")])
        assert result.exit_code == cli.EXIT_GUARD
        assert "size guard" in result.output


def source_env():
    """Environment in which a fresh interpreter imports this checkout's stfusion."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_divergence_prints_one_stderr_line(runner, tmp_path):
    # A fresh process, because CliRunner captures NumPy's warnings before they reach stderr.
    cfg_path = write_config(tmp_path, base_config())
    wd = tmp_path / "run"
    invoke(runner, ["generate", "--config", cfg_path, "--workdir", str(wd)])
    invoke(runner, ["train", "--config", cfg_path, "--workdir", str(wd)])
    cfg = base_config()
    cfg["schedule"]["lr"] = 1e300
    diverging = write_config(tmp_path, cfg, name="diverging.json")
    for stage, prefix in (
        (["train"], "training diverged: "),  # exits before writing, so the oracle still finds weights
        (["oracle", "--jobs", "1"], "oracle training diverged: "),
        (["oracle", "--jobs", "2"], "oracle training diverged: "),
    ):
        args = [*stage, "--config", diverging, "--workdir", str(wd)]
        result = subprocess.run([sys.executable, "-m", "stfusion.cli", *args],
                                env=source_env(), capture_output=True, text=True)
        assert result.returncode == cli.EXIT_DIVERGED, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), result.stderr


def test_oracle_pool_workers_run_blas_on_one_thread(monkeypatch):
    pinned = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    with cli._pinned_pool(2) as pool:
        assert list(pool.map(os.getenv, pinned)) == ["1"] * 3
    assert dict(os.environ) == before


def test_pipeline_bytes_do_not_depend_on_the_process(tmp_path):
    # Criterion 9 reruns a stage inside one process; here each stage runs in a
    # fresh interpreter, under two string-hash seeds.
    cfg = base_config()
    cfg["template"]["num_blocks"] = 2  # a Transition between the blocks
    cfg_path = write_config(tmp_path, cfg)
    outputs = []
    for hash_seed in ("1", "2"):
        wd = tmp_path / f"run{hash_seed}"
        for stage in ("generate", "train", "sample-eval", "report"):
            subprocess.run([sys.executable, "-m", "stfusion.cli", stage, "--config", cfg_path, "--workdir", str(wd)],
                           env=dict(source_env(), PYTHONHASHSEED=hash_seed), capture_output=True, check=True)
        outputs.append({name: (wd / name).read_bytes() for name in (
            cli.HISTORY_FILE, cli.GATES_FILE, cli.EVALS_FILE, cli.BEST_FILE, cli.PREFERENCE_FILE)})
    assert outputs[0] == outputs[1]


def test_cli_import_loads_no_scipy():
    probe = "import sys, stfusion.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=source_env(), capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
