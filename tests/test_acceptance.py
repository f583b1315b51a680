"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Criteria 1-5 and 9 are exact/statistical properties; criteria 6-8 are
desk-scale experiments over seeds 1-5 with majority thresholds.
"""
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from stfusion import cli
from stfusion import data as D
from stfusion import lab as L
from stfusion import tensor as T
from stfusion.gates import (
    GateParams,
    ObjectiveConfig,
    _concrete_site,
    marginal_eq7,
    objective,
    sample_gates_hard,
    unit_composition,
)
from stfusion.model import (
    FusionStrategy,
    FusionUnitKind,
    StrategyLayer,
    Subnetwork,
    TemplateConfig,
    TemplateNetwork,
    enumerate_all_strategies,
    gates_from_strategy,
    recover_strategy,
)
from conftest import fd_gradient, linear_probe, max_rel_error, monte_carlo_unit_marginal

SEEDS = (1, 2, 3, 4, 5)

EXP_TEMPLATE = TemplateConfig(
    num_blocks=1, layers_per_block=2, growth_channels=6, stem_channels=6,
    clip_shape=(1, 8, 12, 12), num_classes=4,
)


def _report(num, desc, ok):
    print(f"\ncriterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def _schedule(seed, warmup, main):
    return L.TrainSchedule(
        warmup_epochs=warmup, main_epochs=main, batch_size=8, lr=0.05,
        lr_decay_epochs=(warmup + int(main * 0.7),), seed=seed,
    )


def _all_unit(unit, layers):
    return FusionStrategy(layers=[
        StrategyLayer(l=i, v=tuple([True] * i), u=unit) for i in range(1, layers + 1)
    ])


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    tol = 1e-4
    cases = 20
    worst = 0.0

    def check(err):
        nonlocal worst
        worst = max(worst, err)

    for i in range(cases):
        rng = np.random.default_rng([11, i])
        probe = lambda: np.random.default_rng([12, i])
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        # elementwise and reduction ops
        check(max_rel_error(lambda: linear_probe(T.add(a, b), probe()), [a, b]))
        check(max_rel_error(lambda: linear_probe(T.sub(a, b), probe()), [a, b]))
        check(max_rel_error(lambda: linear_probe(T.neg(a), probe()), [a]))
        check(max_rel_error(lambda: linear_probe(T.mul(a, b), probe()), [a, b]))
        check(max_rel_error(lambda: linear_probe(T.scale(a, 1.7), probe()), [a]))
        check(max_rel_error(lambda: linear_probe(T.add_const(a, 0.3), probe()), [a]))
        check(max_rel_error(lambda: T.sum_all(a), [a]))
        check(max_rel_error(lambda: T.sumsq(a), [a]))
        check(max_rel_error(lambda: linear_probe(T.sigmoid(a), probe()), [a]))

        s = T.Tensor(np.float64(rng.normal()), requires_grad=True)
        check(max_rel_error(lambda: linear_probe(T.scale_t(a, s), probe()), [a, s]))

        # relu away from the kink; log on positive inputs
        r = T.Tensor(rng.normal(size=(3, 4)) + np.where(rng.normal(size=(3, 4)) > 0, 0.2, -0.2),
                     requires_grad=True)
        r.data[np.abs(r.data) < 0.1] = 0.5
        check(max_rel_error(lambda: linear_probe(T.relu(r), probe()), [r]))
        pos = T.Tensor(np.abs(rng.normal(size=(3, 4))) + 0.5, requires_grad=True)
        check(max_rel_error(lambda: linear_probe(T.log(pos), probe()), [pos]))

        # clip-shaped ops
        x = T.Tensor(rng.normal(size=(2, 2, 3, 4, 4)), requires_grad=True)
        y = T.Tensor(rng.normal(size=(2, 2, 3, 4, 4)), requires_grad=True)
        k2 = T.Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        k1 = T.Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        head = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        check(max_rel_error(lambda: linear_probe(T.concat_channels([x, y]), probe()), [x, y]))
        check(max_rel_error(lambda: linear_probe(T.conv2d_spatial(x, k2, 1), probe()), [x, k2]))
        check(max_rel_error(lambda: linear_probe(T.conv1d_temporal(x, k1, 1), probe()), [x, k1]))
        check(max_rel_error(lambda: linear_probe(T.avg_pool_spatial(x), probe()), [x]))
        check(max_rel_error(lambda: linear_probe(T.pool_and_classify(x, head), probe()), [x, head]))

        bn = T.BatchNorm(2, f"bn{i}")
        check(max_rel_error(lambda: linear_probe(bn(x, training=True), probe()), [x, bn.gamma, bn.beta]))

        logits = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=4).tolist()
        check(max_rel_error(lambda: T.softmax_cross_entropy(logits, labels), [logits]))

        # concrete gate sampler
        u = float(rng.uniform(0.05, 0.95))
        tau = float(rng.uniform(0.2, 2.0))
        z = T.Tensor(np.float64(rng.normal()), requires_grad=True)
        T.backward(_concrete_site(z, u, tau))
        fd = fd_gradient(lambda: _concrete_site(z, u, tau), z, h=1e-6)
        check(float(np.abs(z.grad - fd) / max(np.abs(fd), 1e-8)))

        # full objective (nll + entropy + weight terms)
        params = GateParams(blocks=(1, 2), init_drop=float(rng.uniform(0.1, 0.6)))
        w1 = T.Parameter(rng.normal(size=4), "layer1/S/conv2d")
        w2 = T.Parameter(rng.normal(size=3), "layer2/ST/conv1d")
        cfg = ObjectiveConfig(k=float(rng.uniform(0.5, 2.0)), n_train=5)
        nll_in = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def make_obj():
            return objective(T.sumsq(nll_in), params, [(1, "S", w1), (2, "ST", w2)], cfg).total_tensor

        check(max_rel_error(make_obj, params.trainable_tensors() + [w1, w2, nll_in], h=1e-6))

    _report(1, f"finite-difference gradient suite, max rel err {worst:.2e}", worst < tol)


# ---------------------------------------------------------------------------
# 2. objective boundary identities
# ---------------------------------------------------------------------------

def test_criterion_2_objective_boundaries():
    ok = True
    # p = 1: both regularizers vanish
    params = GateParams(blocks=(1, 1))
    for lg in params.layers:
        lg.edge.data = np.float64(60.0)
        lg.s.data = np.float64(60.0)
        lg.st.data = np.float64(60.0)
    w = T.Parameter(np.array([1.0, 1.0]), "layer1/S/conv2d")
    bd = objective(T.Tensor(np.float64(0.4)), params, [(1, "S", w)], ObjectiveConfig(k=1.0, n_train=1))
    ok &= abs(bd.entropy_term) < 1e-9 and abs(bd.weight_term) < 1e-9

    # p = 0.5, k = 1, N = 1, ||w||^2 = 2: per-site entropy -0.34657, weight 0.5
    half = GateParams(blocks=(1, 1), init_drop=0.5)
    bd2 = objective(T.Tensor(np.float64(0.0)), half, [(1, "S", w)], ObjectiveConfig(k=1.0, n_train=1))
    per_site = bd2.entropy_term / 3  # edge, S, ST sites share p = 0.5
    ok &= abs(per_site - (-0.34657)) < 1e-5 and abs(per_site - 0.5 * math.log(0.5)) < 1e-9
    ok &= abs(bd2.weight_term - 0.5) < 1e-9
    _report(2, "objective boundary identities", ok)


# ---------------------------------------------------------------------------
# 3. marginal arithmetic
# ---------------------------------------------------------------------------

def test_criterion_3_marginal_arithmetic(tmp_path):
    ok = marginal_eq7(0.0) == 1.0 and marginal_eq7(0.25) == 0.5 and marginal_eq7(1.0) == 0.0

    params = GateParams.for_config(EXP_TEMPLATE, init_drop=0.37)
    params.layers[1].s.data = np.float64(0.8)
    path = tmp_path / "gates.json"
    params.save(path)
    loaded = GateParams.load(path)
    best = _all_unit(FusionUnitKind.S_PLUS_ST, EXP_TEMPLATE.total_layers)
    report = L.layer_preference_report(loaded, best)
    for row, (_, p_s, p_st) in zip(report.rows, loaded.drop_probs()):
        ok &= abs(row.eq7_S - (1 - math.sqrt(p_s))) < 1e-12
        ok &= abs(row.eq7_ST - (1 - math.sqrt(p_st))) < 1e-12
    _report(3, "marginal probability arithmetic", ok)


# ---------------------------------------------------------------------------
# 4. gate-sampling consistency
# ---------------------------------------------------------------------------

def test_criterion_4_sampling_consistency():
    n = 100000
    ok = True
    params = GateParams.for_config(EXP_TEMPLATE, init_drop=0.3)
    rng = np.random.default_rng(17)
    keeps = sum(sample_gates_hard(params, rng).layers[0].st for _ in range(n))
    sigma3 = 3 * math.sqrt(0.7 * 0.3 / n)
    ok &= abs(keeps / n - 0.7) < sigma3

    asym = GateParams.for_config(EXP_TEMPLATE, init_drop=0.3)
    asym.layers[1].st.data = np.float64(math.log(0.6 / 0.4))  # p_ST = 0.6
    freqs = monte_carlo_unit_marginal(asym, 2, n, np.random.default_rng(23))
    for key, expect in unit_composition(0.3, 0.6).items():
        band = 3 * math.sqrt(expect * (1 - expect) / n)
        ok &= abs(freqs[key] - expect) < band
    _report(4, "gate sampling matches closed-form composition", ok)


# ---------------------------------------------------------------------------
# 5. strategy round-trip
# ---------------------------------------------------------------------------

def test_criterion_5_strategy_round_trip():
    cfg = TemplateConfig(num_blocks=1, layers_per_block=2, growth_channels=4,
                         stem_channels=4, clip_shape=(1, 4, 8, 8), num_classes=3)
    net = TemplateNetwork(cfg, seed=0)
    batch = T.Tensor(np.random.default_rng(3).normal(size=(2,) + cfg.clip_shape))
    from stfusion.gates import GateSample
    net.forward(batch, GateSample.all_on(cfg), training=True)  # seed BN statistics
    ok = True

    for strat in enumerate_all_strategies(2):
        gates = gates_from_strategy(strat, (cfg.num_blocks, cfg.layers_per_block))
        recovered = recover_strategy(gates)
        ok &= recovered.to_json() == strat.to_json()
        sub = Subnetwork(net, strat)
        direct = net.forward(batch, gates, training=False).data
        ok &= np.array_equal(sub.forward(batch, training=False).data, direct)

    rng = np.random.default_rng(9)
    for _ in range(100):
        raw = GateParams.for_config(cfg, init_drop=0.5)
        gates = sample_gates_hard(raw, rng)
        recovered = recover_strategy(gates)
        regates = gates_from_strategy(recovered, (cfg.num_blocks, cfg.layers_per_block))
        a = net.forward(batch, gates, training=False).data
        b = net.forward(batch, regates, training=False).data
        ok &= np.array_equal(a, b)
    _report(5, "strategy materialize/recover round-trip is bitwise", ok)


# ---------------------------------------------------------------------------
# 6. separation experiment
# ---------------------------------------------------------------------------

def test_criterion_6_temporal_separation():
    spec = D.SynthSpec(mode="temporal_only", classes=4, clips_per_class=20,
                       clip_shape=(1, 8, 12, 12), noise_sigma=0.05)
    hits = 0
    lines = []
    for seed in SEEDS:
        ds = D.generate_synthetic(spec, seed=seed)
        train, val = D.split(ds, 0.5, seed=seed)
        sched = _schedule(seed, warmup=0, main=20)
        acc_st = L.train_standalone(_all_unit(FusionUnitKind.ST, 2), EXP_TEMPLATE, train, val, sched)
        acc_s = L.train_standalone(_all_unit(FusionUnitKind.S, 2), EXP_TEMPLATE, train, val, sched)
        chance = 1.0 / spec.classes
        band = 3 * math.sqrt(chance * (1 - chance) / len(val))
        good = acc_st > 0.9 and abs(acc_s - chance) < band
        hits += good
        lines.append(f"seed {seed}: all-ST {acc_st:.3f}, all-S {acc_s:.3f} (chance band +/-{band:.3f})")
    print("\n" + "\n".join(lines))
    _report(6, f"temporal separation in {hits}/5 seeds", hits >= 4)


# ---------------------------------------------------------------------------
# 7. posterior vs oracle
# ---------------------------------------------------------------------------

def test_criterion_7_posterior_vs_oracle():
    spec = D.SynthSpec(mode="mixed", classes=6, clips_per_class=12,
                       clip_shape=(1, 8, 12, 12), noise_sigma=0.3)
    cfg = TemplateConfig(num_blocks=1, layers_per_block=2, growth_channels=6,
                         stem_channels=6, clip_shape=(1, 8, 12, 12), num_classes=6)
    strategies = enumerate_all_strategies(2)
    rhos, wins, lines = [], 0, []
    for seed in SEEDS:
        ds = D.generate_synthetic(spec, seed=seed)
        train, val = D.split(ds, 0.5, seed=seed)
        sched = _schedule(seed, warmup=5, main=15)
        net = TemplateNetwork(cfg, seed=seed)
        params = GateParams.for_config(cfg, init_drop=0.1)
        L.train_template(net, params, train, val, sched, ObjectiveConfig(k=1.0, n_train=len(train)))

        posterior = [ev.val_accuracy for ev in L.evaluate_strategy(net, strategies, val)]
        oracle = [L.train_standalone(s, cfg, train, val, sched) for s in strategies]
        rho = L.rank_correlation(posterior, oracle)
        rhos.append(rho)

        samples = L.sample_strategies(params, 30, np.random.default_rng(seed))
        best = L.select_best(L.evaluate_strategy(net, samples, val))
        best_oracle = L.train_standalone(best.strategy, cfg, train, val, sched)
        median = float(np.median(oracle))
        win = best_oracle >= median
        wins += win
        lines.append(f"seed {seed}: rho={rho:+.3f}, selected strategy oracle acc "
                     f"{best_oracle:.3f} vs median {median:.3f}")
    mean_rho = float(np.mean(rhos))
    print("\n" + "\n".join(lines))
    _report(7, f"posterior-oracle mean rho {mean_rho:+.3f}, selection wins {wins}/5",
            mean_rho > 0 and wins >= 4)


# ---------------------------------------------------------------------------
# 8. directional preference
# ---------------------------------------------------------------------------

def test_criterion_8_directional_preference():
    results = {}
    lines = []
    for mode in ("temporal_only", "spatial_only"):
        spec = D.SynthSpec(mode=mode, classes=4, clips_per_class=20,
                           clip_shape=(1, 8, 12, 12), noise_sigma=0.05)
        hits = 0
        for seed in SEEDS:
            ds = D.generate_synthetic(spec, seed=seed)
            train, val = D.split(ds, 0.5, seed=seed)
            sched = _schedule(seed, warmup=5, main=40)
            net = TemplateNetwork(EXP_TEMPLATE, seed=seed)
            params = GateParams.for_config(EXP_TEMPLATE, init_drop=0.1)
            L.train_template(net, params, train, val, sched,
                             ObjectiveConfig(k=2.0, n_train=len(train)))
            comps = [unit_composition(p_s, p_st) for (_, p_s, p_st) in params.drop_probs()]
            f_s = float(np.mean([c["S"] for c in comps]))
            f_st = float(np.mean([c["ST"] for c in comps]))
            good = f_st > f_s if mode == "temporal_only" else f_s > f_st
            hits += good
            lines.append(f"{mode} seed {seed}: mean freq S {f_s:.3f}, ST {f_st:.3f}")
        results[mode] = hits
    print("\n" + "\n".join(lines))
    _report(8, f"directional preference temporal {results['temporal_only']}/5, "
               f"spatial {results['spatial_only']}/5",
            results["temporal_only"] >= 4 and results["spatial_only"] >= 4)


# ---------------------------------------------------------------------------
# 9. determinism of the training command
# ---------------------------------------------------------------------------

def test_criterion_9_train_determinism(tmp_path):
    config = {
        "template": {"num_blocks": 1, "layers_per_block": 2, "growth_channels": 4,
                     "stem_channels": 4, "clip_shape": [1, 4, 8, 8], "num_classes": 2},
        "schedule": {"warmup_epochs": 2, "main_epochs": 2, "batch_size": 8,
                     "lr": 0.03, "lr_decay_epochs": [3], "seed": 1},
        "objective": {"k": 1.0},
        "data": {"mode": "temporal_only", "classes": 2, "clips_per_class": 8,
                 "clip_shape": [1, 4, 8, 8], "noise_sigma": 0.0, "seed": 1,
                 "train_frac": 0.5},
        "sampling": {"count": 4, "seed": 1},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    wd = tmp_path / "run"
    runner = CliRunner()
    args = ["--config", str(cfg_path), "--workdir", str(wd)]
    assert runner.invoke(cli.main, ["generate"] + args, catch_exceptions=False).exit_code == 0
    assert runner.invoke(cli.main, ["train"] + args, catch_exceptions=False).exit_code == 0
    first = (wd / cli.HISTORY_FILE).read_bytes()
    assert runner.invoke(cli.main, ["train"] + args, catch_exceptions=False).exit_code == 0
    ok = (wd / cli.HISTORY_FILE).read_bytes() == first
    _report(9, "train command is byte-identical on rerun", ok)
