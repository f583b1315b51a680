"""Command-line entry point.

    stfusion <generate|train|sample-eval|report|oracle> --config PATH
             [--workdir PATH] [--seed INT] [--jobs INT]

Exit codes: 0 ok, 2 config error, 3 training divergence, 4 missing artifact,
5 enumeration size guard, 6 artifact unreadable or does not match config.

Each command and each `oracle --jobs N` worker first pins glibc's heap thresholds (`_pin_heap`).
"""
from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from zipfile import BadZipFile

import click
import numpy as np

from . import data as D
from . import lab
from .config import RunConfig, load_run_config, override_seed
from .errors import ConfigurationError, ContractError, SizeGuardError, TrainingDiverged
from .gates import GateParams, ObjectiveConfig
from .model import FusionStrategy, TemplateNetwork, enumerate_all_strategies

EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_MISSING = 4
EXIT_GUARD = 5
EXIT_MISMATCH = 6

DATASET_FILE = "dataset.stfd"
WEIGHTS_FILE = "weights.npz"
GATES_FILE = "gates.json"
HISTORY_FILE = "history.json"
EVALS_FILE = "evaluations.csv"
BEST_FILE = "best_strategy.json"
PREFERENCE_FILE = "preference.csv"
ORACLE_FILE = "oracle.csv"
RHO_FILE = "rho.json"


M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's <malloc.h>
M_MMAP_THRESHOLD = -3


def _pin_heap():
    """Fix glibc's mmap and trim thresholds at 32 and 256 MiB; a no-op where libc has no `mallopt`.

    By default glibc sets both from the largest mapped block freed so far. No
    temporary here is larger than about 2 MB, so they stay that low: the
    memory of each op's arrays goes back to the system when they are freed
    and is faulted in again on the next call. Fixed, freed memory stays in
    the heap.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 32 << 20)
        mallopt(M_TRIM_THRESHOLD, 256 << 20)


def _load_config(config_path, workdir, seed) -> tuple:
    try:
        cfg = load_run_config(config_path)
    except ConfigurationError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if seed is not None:
        cfg = override_seed(cfg, seed)
    wd = Path(workdir)
    wd.mkdir(parents=True, exist_ok=True)
    return cfg, wd


def _require(path: Path):
    if not path.exists():
        click.echo(f"missing artifact: {path} (run the earlier pipeline stages first)", err=True)
        sys.exit(EXIT_MISSING)
    return path


def _load_dataset_splits(cfg: RunConfig, wd: Path):
    path = _require(wd / DATASET_FILE)
    with _readable(path):  # a class with fewer than two clips cannot be split
        dataset = D.load(path)
        made = dict(dataset.manifest["spec"], seed=dataset.manifest["seed"])
        wanted = dict(cfg.data.spec.to_json(), seed=cfg.data.seed)
        stale = [key for key in wanted if made.get(key) != wanted[key]]
        if stale:
            _mismatch(path, "dataset was generated with " + ", ".join(f"{k} {made.get(k)}" for k in stale)
                      + "; config has " + ", ".join(f"{k} {wanted[k]}" for k in stale))
        return D.split(dataset, cfg.data.train_frac, cfg.data.seed)


def _save_weights(net, path):
    np.savez(path, **net.state_dict())


def _mismatch(path, problem):
    click.echo(f"artifact does not match config: {path}: {problem}", err=True)
    sys.exit(EXIT_MISMATCH)


@contextmanager
def _readable(path):
    """Exit 6 if the body fails to read the artifact at `path`, or finds it inconsistent with itself."""
    try:
        yield
    except (KeyError, ContractError, ValueError, TypeError, EOFError, BadZipFile) as exc:
        _mismatch(path, f"missing key {exc}" if isinstance(exc, KeyError) else exc)


def _load_weights(net, path):
    with _readable(path), np.load(path) as archive:
        net.load_state_dict(dict(archive))


def _load_gates(cfg: RunConfig, wd: Path) -> GateParams:
    path = _require(wd / GATES_FILE)
    with _readable(path):
        params = GateParams.load(path)
    expected = GateParams.for_config(cfg.template)
    if params.blocks != expected.blocks:
        _mismatch(path, f"gate layout has blocks {list(params.blocks)}, edge_counts {params.edge_counts}; "
                        f"template expects blocks {list(expected.blocks)}, edge_counts {expected.edge_counts}")
    return params


def _load_best_strategy(cfg: RunConfig, wd: Path) -> FusionStrategy:
    path = _require(wd / BEST_FILE)
    with _readable(path):
        best = FusionStrategy.from_json(json.loads(path.read_text())["strategy"]).validate()
    if best.num_layers != cfg.template.total_layers:
        _mismatch(path, f"strategy has {best.num_layers} layers, template has {cfg.template.total_layers}")
    return best


config_option = click.option("--config", "config_path", required=True, type=click.Path())
workdir_option = click.option("--workdir", default="run", show_default=True, type=click.Path())
seed_option = click.option("--seed", default=None, type=int, help="Override schedule/data/sampling seeds.")


@click.group()
def main():
    """Spatiotemporal fusion strategy lab."""
    _pin_heap()


@main.command()
@config_option
@workdir_option
@seed_option
def generate(config_path, workdir, seed):
    """Generate the synthetic clip dataset for this run."""
    cfg, wd = _load_config(config_path, workdir, seed)
    dataset = D.generate_synthetic(cfg.data.spec, cfg.data.seed)
    D.save(dataset, wd / DATASET_FILE)
    click.echo(json.dumps(dataset.manifest, sort_keys=True))
    click.echo(f"wrote {wd / DATASET_FILE} ({len(dataset)} clips)")


@main.command()
@config_option
@workdir_option
@seed_option
def train(config_path, workdir, seed):
    """Run warmup and variational DropPath training on the template network."""
    cfg, wd = _load_config(config_path, workdir, seed)
    train_set, val_set = _load_dataset_splits(cfg, wd)
    net = TemplateNetwork(cfg.template, seed=cfg.schedule.seed)
    params = GateParams.for_config(cfg.template, init_drop=0.1, tau=1.0)
    objective_cfg = ObjectiveConfig(k=cfg.objective_k, n_train=len(train_set))
    try:
        history = lab.train_template(net, params, train_set, val_set, cfg.schedule, objective_cfg)
    except TrainingDiverged as exc:
        click.echo(f"training diverged: {exc}", err=True)
        sys.exit(EXIT_DIVERGED)
    _save_weights(net, wd / WEIGHTS_FILE)
    lab.write_json(wd / GATES_FILE, params.to_json())
    lab.write_json(wd / HISTORY_FILE, history)
    click.echo(f"trained {len(history)} epochs; wrote {wd / WEIGHTS_FILE}, {wd / GATES_FILE}, {wd / HISTORY_FILE}")


@main.command(name="sample-eval")
@config_option
@workdir_option
@seed_option
def sample_eval(config_path, workdir, seed):
    """Sample strategies from the posterior and evaluate them training-free."""
    cfg, wd = _load_config(config_path, workdir, seed)
    train_set, val_set = _load_dataset_splits(cfg, wd)
    net = TemplateNetwork(cfg.template, seed=cfg.schedule.seed)
    _load_weights(net, _require(wd / WEIGHTS_FILE))
    params = _load_gates(cfg, wd)
    rng = np.random.default_rng(cfg.sampling.seed)
    strategies = lab.sample_strategies(params, cfg.sampling.count, rng)
    recal = train_set if cfg.sampling.recalibrate_bn else None
    evals = lab.evaluate_strategy(net, strategies, val_set, recalibrate=recal)
    lab.write_evaluations_csv(evals, wd / EVALS_FILE)
    best = lab.select_best(evals)
    lab.write_json(wd / BEST_FILE, {"strategy": best.strategy.to_json(), "val_accuracy": best.val_accuracy,
                                    "active_params": best.active_param_count, "mult_adds": best.mult_add_proxy})
    click.echo(f"evaluated {len(evals)} strategies; wrote {wd / EVALS_FILE}, {wd / BEST_FILE}")


@main.command()
@config_option
@workdir_option
@seed_option
def report(config_path, workdir, seed):
    """Write the per-layer fusion preference report."""
    cfg, wd = _load_config(config_path, workdir, seed)
    params = _load_gates(cfg, wd)
    rows = lab.layer_preference_report(params, _load_best_strategy(cfg, wd))
    lab.write_csv(wd / PREFERENCE_FILE, lab.PREFERENCE_HEADER, rows)
    click.echo(f"wrote {wd / PREFERENCE_FILE} ({len(rows)} layers)")


_oracle_inputs = None  # (cfg, train_set, val_set), set once per process by _oracle_init


def _oracle_init(cfg, train_set, val_set):
    global _oracle_inputs
    _pin_heap()
    _oracle_inputs = (cfg, train_set, val_set)


def _oracle_worker(strategy):
    cfg, train_set, val_set = _oracle_inputs
    return lab.train_standalone(strategy, cfg.template, train_set, val_set, cfg.schedule)


@contextmanager
def _pinned_pool(jobs, initializer=None, initargs=()):
    """A pool of `jobs` spawned workers that load NumPy with BLAS on one thread; restores the environment."""
    pinned = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {name: os.environ.get(name) for name in pinned}
    os.environ.update(dict.fromkeys(pinned, "1"))
    try:
        with ProcessPoolExecutor(jobs, multiprocessing.get_context("spawn"), initializer, initargs) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            os.environ.pop(name)
            if value is not None:
                os.environ[name] = value


@main.command()
@config_option
@workdir_option
@seed_option
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1), help="Parallel standalone trainings.")
def oracle(config_path, workdir, seed, jobs):
    """Train every enumerated strategy standalone and compare to the posterior."""
    cfg, wd = _load_config(config_path, workdir, seed)
    try:
        strategies = enumerate_all_strategies(cfg.template.total_layers)
    except SizeGuardError as exc:
        click.echo(f"size guard: {exc}", err=True)
        sys.exit(EXIT_GUARD)
    train_set, val_set = _load_dataset_splits(cfg, wd)
    net = TemplateNetwork(cfg.template, seed=cfg.schedule.seed)
    _load_weights(net, _require(wd / WEIGHTS_FILE))

    recal = train_set if cfg.sampling.recalibrate_bn else None
    posterior = [ev.val_accuracy for ev in lab.evaluate_strategy(net, strategies, val_set, recalibrate=recal)]

    inputs = (cfg, train_set, val_set)
    try:
        if jobs > 1:
            with _pinned_pool(jobs, _oracle_init, inputs) as pool:
                oracle_accs = list(pool.map(_oracle_worker, strategies))
        else:
            _oracle_init(*inputs)
            oracle_accs = [_oracle_worker(s) for s in strategies]
    except TrainingDiverged as exc:
        click.echo(f"oracle training diverged: {exc}", err=True)
        sys.exit(EXIT_DIVERGED)

    lab.write_csv(wd / ORACLE_FILE, ["strategy_json", "oracle_accuracy", "posterior_accuracy"], [
        {"strategy_json": lab.strategy_json(s), "oracle_accuracy": oa, "posterior_accuracy": pa}
        for s, oa, pa in zip(strategies, oracle_accs, posterior)
    ])
    rho = lab.rank_correlation(posterior, oracle_accs)
    lab.write_json(wd / RHO_FILE, {"seed": cfg.schedule.seed, "spearman_rho": rho,
                                   "oracle_accuracies": oracle_accs, "posterior_accuracies": posterior})
    click.echo(f"oracle over {len(strategies)} strategies: spearman rho = {rho:.4f}")


if __name__ == "__main__":
    main()
