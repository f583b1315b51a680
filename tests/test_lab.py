import json
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from stfusion import data as D
from stfusion import lab as L
from stfusion import tensor as T
from stfusion.errors import ContractError, TrainingDiverged
from stfusion.gates import GateParams, ObjectiveConfig
from stfusion.model import (
    FusionStrategy,
    StrategyLayer,
    FusionUnitKind,
    TemplateConfig,
    TemplateNetwork,
    enumerate_all_strategies,
)
from conftest import evaluate_one, strategy_from_literature

CFG = TemplateConfig(
    num_blocks=1, layers_per_block=2, growth_channels=4, stem_channels=4,
    clip_shape=(1, 4, 8, 8), num_classes=2,
)
CFG2 = TemplateConfig(
    num_blocks=2, layers_per_block=2, growth_channels=4, stem_channels=4,
    clip_shape=(1, 4, 8, 8), num_classes=2,
)


@pytest.fixture(scope="module")
def tiny_splits():
    spec = D.SynthSpec(mode="temporal_only", classes=2, clips_per_class=8,
                       clip_shape=(1, 4, 8, 8), noise_sigma=0.0)
    ds = D.generate_synthetic(spec, seed=0)
    return D.split(ds, 0.5, seed=0)


def make_eval(acc, mults=10, params=10, tag=0):
    strat = FusionStrategy(layers=[
        StrategyLayer(l=1, v=(True,), u=list(FusionUnitKind)[tag % 3]),
        StrategyLayer(l=2, v=(True, True), u=FusionUnitKind.S_PLUS_ST),
    ])
    return L.StrategyEvaluation(strategy=strat, val_accuracy=acc,
                                active_param_count=params, mult_add_proxy=mults)


class TestRankCorrelation:
    def test_perfect_agreement(self):
        assert L.rank_correlation([0.1, 0.2, 0.3], [1.0, 2.0, 9.0]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert L.rank_correlation([1, 2, 3, 4], [8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_hand_computed_single_swap(self):
        # ranks (1,2,3,4) vs (1,2,4,3): rho = 1 - 6*2/(4*15) = 0.8
        assert L.rank_correlation([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            L.rank_correlation([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ContractError):
            L.rank_correlation([1], [2])

    def test_constant_input_is_zero(self):
        assert L.rank_correlation([2, 2, 2], [1, 5, 3]) == 0.0

    def test_monotone_transform_invariance(self):
        a = [0.3, 0.9, 0.1, 0.5]
        b = [1.0, 4.0, 0.5, 2.0]
        assert L.rank_correlation(a, b) == L.rank_correlation(a, [np.exp(x) for x in b])

    @given(
        st.integers(min_value=2, max_value=30).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_nan=False)),
                    st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10, allow_nan=False)),
                ),
                min_size=n, max_size=n,
            )
        )
    )
    def test_matches_scipy_bitwise(self, pairs):
        stats = pytest.importorskip("scipy.stats")
        a, b = map(list, zip(*pairs))
        assume(np.ptp(a) > 0 and np.ptp(b) > 0)
        expected = stats.spearmanr(a, b).statistic
        assert np.float64(L.rank_correlation(a, b)).tobytes() == np.float64(expected).tobytes()


class TestTrainingDiverged:
    def test_pickle_round_trip(self):
        for exc in (TrainingDiverged(3), TrainingDiverged(5, "custom message")):
            back = pickle.loads(pickle.dumps(exc))
            assert (type(back), back.epoch, str(back)) == (TrainingDiverged, exc.epoch, str(exc))
        assert str(TrainingDiverged(3)) == "training diverged (non-finite loss) at epoch 3"


class TestSelectBest:
    def test_argmax(self):
        evals = [make_eval(0.5), make_eval(0.9), make_eval(0.7)]
        assert L.select_best(evals) is evals[1]

    def test_tie_prefers_cheaper_compute(self):
        evals = [make_eval(0.8, mults=20), make_eval(0.8, mults=5), make_eval(0.8, mults=12)]
        assert L.select_best(evals) is evals[1]

    def test_tie_then_fewer_params(self):
        evals = [make_eval(0.8, mults=5, params=40), make_eval(0.8, mults=5, params=20)]
        assert L.select_best(evals) is evals[1]

    def test_full_tie_keeps_first(self):
        evals = [make_eval(0.8), make_eval(0.8)]
        assert L.select_best(evals) is evals[0]

    def test_empty(self):
        with pytest.raises(ContractError):
            L.select_best([])


class TestSampling:
    def test_degenerate_posterior_always_full(self):
        params = GateParams.for_config(CFG, init_drop=0.0)
        for lg in params.layers:
            lg.edge.data = np.float64(-60.0)
            lg.s.data = np.float64(-60.0)
            lg.st.data = np.float64(-60.0)
        full = strategy_from_literature("mixed_everywhere", CFG.total_layers)
        for strat in L.sample_strategies(params, 20, np.random.default_rng(0)):
            assert strat.to_json() == full.to_json()

    def test_count_and_determinism(self):
        params = GateParams.for_config(CFG, init_drop=0.5)
        a = L.sample_strategies(params, 30, np.random.default_rng(7))
        b = L.sample_strategies(params, 30, np.random.default_rng(7))
        assert len(a) == 30
        assert [s.to_json() for s in a] == [s.to_json() for s in b]


def _checksum(net):
    return float(sum(np.sum(p.data) for p in net.parameters())) + float(
        sum(np.sum(bn.running[0]) + np.sum(bn.running[1]) for bn in net.batch_norms()))


class TestEvaluateStrategy:
    @pytest.mark.parametrize("config", [CFG, CFG2], ids=["one-block", "two-block"])
    def test_full_strategy_matches_template(self, tiny_splits, config):
        # with two blocks, the template's all-on strategy has False in the cross-block v slots
        train, val = tiny_splits
        net = TemplateNetwork(config, seed=1)
        sched = L.TrainSchedule(warmup_epochs=2, main_epochs=0, batch_size=8, lr=0.05, seed=1)
        L.train_template(net, GateParams.for_config(config), train, val, sched,
                         ObjectiveConfig(k=1.0, n_train=len(train)))
        full = strategy_from_literature("mixed_everywhere", config.total_layers)
        [ev] = L.evaluate_strategy(net, [full], val)
        assert ev.val_accuracy == L.template_accuracy(net, val)

    def test_evaluation_leaves_network_untouched(self, tiny_splits):
        train, val = tiny_splits
        net = TemplateNetwork(CFG, seed=1)
        sched = L.TrainSchedule(warmup_epochs=1, main_epochs=0, batch_size=8, seed=1)
        L.train_template(net, GateParams.for_config(CFG), train, val, sched,
                         ObjectiveConfig(k=1.0, n_train=len(train)))
        before = _checksum(net)
        strats = [strategy_from_literature(name, CFG.total_layers) for name in ("top_heavy", "bottom_heavy")]
        L.evaluate_strategy(net, strats, val)
        L.evaluate_strategy(net, strats, val, recalibrate=train)
        assert _checksum(net) == before

    def test_repeat_evaluation_identical(self, tiny_splits):
        train, val = tiny_splits
        net = TemplateNetwork(CFG, seed=2)
        sched = L.TrainSchedule(warmup_epochs=1, main_epochs=0, batch_size=8, seed=2)
        L.train_template(net, GateParams.for_config(CFG), train, val, sched,
                         ObjectiveConfig(k=1.0, n_train=len(train)))
        strat = strategy_from_literature("bottom_heavy", CFG.total_layers)
        a = L.evaluate_strategy(net, [strat], val)
        b = L.evaluate_strategy(net, [strat], val)
        assert _fields(a) == _fields(b)

    def test_empty_val_rejected(self, tiny_splits):
        train, _ = tiny_splits
        net = TemplateNetwork(CFG, seed=0)
        empty = D.ClipDataset(clips=train.clips[:0], labels=train.labels[:0], manifest=train.manifest)
        with pytest.raises(ContractError):
            L.evaluate_strategy(net, [strategy_from_literature("top_heavy", 2)], empty, recalibrate=train)


@pytest.fixture(scope="module")
def long_splits():
    """A validation split longer than one evaluation batch."""
    spec = D.SynthSpec(mode="temporal_only", classes=2, clips_per_class=45,
                       clip_shape=(1, 4, 8, 8), noise_sigma=0.3)
    train, val = D.split(D.generate_synthetic(spec, seed=0), 0.2, seed=0)
    assert len(val) > L._EVAL_BATCH
    return train, val


def _warmed_up(cfg, train, val):
    net = TemplateNetwork(cfg, seed=1)
    sched = L.TrainSchedule(warmup_epochs=2, main_epochs=0, batch_size=8, seed=1)
    L.train_template(net, GateParams.for_config(cfg), train, val, sched,
                     ObjectiveConfig(k=1.0, n_train=len(train)))
    return net


def _fields(evals):
    return [(ev.strategy, ev.val_accuracy, ev.active_param_count, ev.mult_add_proxy) for ev in evals]


class TestEvaluateStrategies:
    """`evaluate_strategy` over many draws against `evaluate_one` per draw."""

    def _assert_matches_reference(self, net, draws, val, recalibrate=None):
        before = _checksum(net)
        reference = [evaluate_one(net, s, val, recalibrate=recalibrate) for s in draws]
        assert len({ev.val_accuracy for ev in reference}) > 1  # the strategies are told apart
        assert _fields(L.evaluate_strategy(net, draws, val, recalibrate=recalibrate)) == _fields(reference)
        assert _checksum(net) == before

    def _posterior_draws(self, cfg):
        draws = L.sample_strategies(GateParams.for_config(cfg, init_drop=0.1), 30, np.random.default_rng(3))
        assert len(set(draws)) < len(draws)
        return draws

    def test_all_two_layer_strategies(self, long_splits):
        train, val = long_splits
        net = _warmed_up(CFG, train, val)
        self._assert_matches_reference(net, enumerate_all_strategies(2), val)

    def test_posterior_draws_across_a_transition(self, long_splits):
        train, val = long_splits
        net = _warmed_up(CFG2, train, val)
        assert len(net.transitions) == 1
        self._assert_matches_reference(net, self._posterior_draws(CFG2), val)

    def test_recalibrated_posterior_draws(self, long_splits):
        train, val = long_splits
        net = _warmed_up(CFG2, train, val)
        draws = self._posterior_draws(CFG2)
        self._assert_matches_reference(net, draws, val, recalibrate=train)
        # a recalibration set longer than one batch: each node's statistics
        # are seeded, then momentum-updated
        self._assert_matches_reference(net, draws, val, recalibrate=val)

    def test_empty_val_rejected(self, tiny_splits):
        train, _ = tiny_splits
        empty = D.ClipDataset(clips=train.clips[:0], labels=train.labels[:0], manifest=train.manifest)
        with pytest.raises(ContractError):
            L.evaluate_strategy(TemplateNetwork(CFG, seed=0), enumerate_all_strategies(2), empty)

    def test_shared_work_is_done_once(self, long_splits, monkeypatch):
        train, val = long_splits
        net = _warmed_up(CFG, train, val)
        kernels = []
        conv2d = T.conv2d_spatial

        def counted(x, kernel, padding):
            kernels.append(kernel)
            return conv2d(x, kernel, padding)

        monkeypatch.setattr(T, "conv2d_spatial", counted)
        n_batches = lambda ds: -(-len(ds) // L._EVAL_BATCH)
        strat = strategy_from_literature("mixed_everywhere", CFG.total_layers)
        for recalibrate in (None, train):
            # each trie node runs once per recalibration batch plus once per validation batch
            batches = n_batches(val) + (n_batches(recalibrate) if recalibrate is not None else 0)
            kernels.clear()
            L.evaluate_strategy(net, [strat], val, recalibrate=recalibrate)
            once = len(kernels)
            kernels.clear()
            L.evaluate_strategy(net, [strat] * 50, val, recalibrate=recalibrate)
            assert len(kernels) == once

            kernels.clear()
            L.evaluate_strategy(net, enumerate_all_strategies(2), val, recalibrate=recalibrate)
            layer1, layer2 = net.layer_list()
            uses = lambda p: sum(k is p for k in kernels)
            assert uses(net.stem) == batches
            assert uses(layer1.conv_s) == 2 * batches  # S and S+ST at layer 1
            assert uses(layer2.conv_s) == 3 * 2 * batches  # S and S+ST under each of 3 layer-1 prefixes


class TestTrainTemplate:
    def test_warmup_reduces_nll(self, tiny_splits):
        train, val = tiny_splits
        net = TemplateNetwork(CFG, seed=3)
        sched = L.TrainSchedule(warmup_epochs=6, main_epochs=0, batch_size=8, lr=0.05, seed=3)
        hist = L.train_template(net, GateParams.for_config(CFG), train, val, sched,
                                ObjectiveConfig(k=1.0, n_train=len(train)))
        assert len(hist) == 6
        assert all(h["phase"] == "warmup" for h in hist)
        assert hist[-1]["nll"] < hist[0]["nll"]

    def test_history_schema_and_phases(self, tiny_splits):
        train, val = tiny_splits
        net = TemplateNetwork(CFG, seed=4)
        sched = L.TrainSchedule(warmup_epochs=2, main_epochs=3, batch_size=8, lr=0.02,
                                lr_decay_epochs=(4,), seed=4)
        hist = L.train_template(net, GateParams.for_config(CFG), train, val, sched,
                                ObjectiveConfig(k=1.0, n_train=len(train)))
        assert [h["phase"] for h in hist] == ["warmup"] * 2 + ["main"] * 3
        assert [h["epoch"] for h in hist] == list(range(5))
        for h in hist:
            assert {"nll", "entropy_term", "weight_term", "total", "val_accuracy"} <= set(h)
        assert hist[2]["tau"] == 1.0 and abs(hist[4]["tau"] - 0.1) < 1e-12

    def test_bitwise_reproducible(self, tiny_splits):
        train, val = tiny_splits

        def run():
            net = TemplateNetwork(CFG, seed=5)
            params = GateParams.for_config(CFG, init_drop=0.1)
            sched = L.TrainSchedule(warmup_epochs=2, main_epochs=2, batch_size=8, lr=0.02, seed=5)
            hist = L.train_template(net, params, train, val, sched,
                                    ObjectiveConfig(k=1.0, n_train=len(train)))
            return json.dumps(hist, sort_keys=True)

        assert run() == run()

    def test_empty_train_rejected(self, tiny_splits):
        train, val = tiny_splits
        net = TemplateNetwork(CFG, seed=0)
        empty = D.ClipDataset(clips=train.clips[:0], labels=train.labels[:0], manifest=train.manifest)
        with pytest.raises(ContractError):
            L.train_template(net, GateParams.for_config(CFG), empty, val,
                             L.TrainSchedule(), ObjectiveConfig(k=1.0, n_train=1))


class TestTrainStandalone:
    def test_deterministic(self, tiny_splits):
        train, val = tiny_splits
        sched = L.TrainSchedule(warmup_epochs=0, main_epochs=3, batch_size=8, lr=0.05, seed=6)
        strat = strategy_from_literature("top_heavy", CFG.total_layers)
        a = L.train_standalone(strat, CFG, train, val, sched)
        b = L.train_standalone(strat, CFG, train, val, sched)
        assert a == b
        assert 0.0 <= a <= 1.0


class TestTrainingGraphLifetime:
    # (warmup_epochs, main_epochs, evaluation passes that start): a warmup epoch
    # runs _epoch_nll and template_accuracy (which calls evaluate_strategy), a
    # main epoch template_accuracy, a standalone epoch evaluate_strategy.
    RUNS = {"warmup": (2, 0, 6), "main": (0, 2, 4), "standalone": (1, 1, 2)}

    @pytest.mark.parametrize("phase", sorted(RUNS))
    def test_no_batch_graph_outlives_its_epoch(self, tiny_splits, monkeypatch, phase):
        train, val = tiny_splits
        warmup, main, passes = self.RUNS[phase]
        losses = []  # Tensor has __slots__ without __weakref__, so refer to its data
        xent = L.softmax_cross_entropy

        def recorded_xent(logits, labels):
            loss = xent(logits, labels)
            losses.append(weakref.ref(loss.data))
            return loss

        live_at_eval = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                live_at_eval.append(sum(ref() is not None for ref in losses))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(L, "softmax_cross_entropy", recorded_xent)
        for name in ("template_accuracy", "_epoch_nll", "evaluate_strategy"):
            monkeypatch.setattr(L, name, counted(getattr(L, name)))
        sched = L.TrainSchedule(warmup_epochs=warmup, main_epochs=main, batch_size=4, lr=0.02, seed=7)
        if phase == "standalone":
            L.train_standalone(strategy_from_literature("top_heavy", CFG.total_layers), CFG, train, val, sched)
        else:
            L.train_template(TemplateNetwork(CFG, seed=7), GateParams.for_config(CFG), train, val, sched,
                             ObjectiveConfig(k=1.0, n_train=len(train)))
        assert len(losses) >= 2 * (warmup + main)  # two training batches per epoch
        assert live_at_eval == [0] * passes


class TestTapeFreePasses:
    """Passes that never call `backward` record no graph; training batches still do."""

    @pytest.fixture
    def results(self, monkeypatch):
        """(innermost pass or epoch loop, carries a graph, has a parent that requires grad) per op result."""
        seen, active = [], []
        result = T._result

        def recorded(data, parents, backward_fn):
            out = result(data, parents, backward_fn)
            taped = out._backward is not None or bool(out._parents)
            seen.append((active[-1] if active else None, taped, any(p.requires_grad for p in parents)))
            return out

        def marked(name, fn):
            def wrapper(*args, **kwargs):
                active.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    active.pop()
            return wrapper

        monkeypatch.setattr(T, "_result", recorded)
        for name in ("_epoch_nll", "evaluate_strategy", "_sgd_epoch"):
            monkeypatch.setattr(L, name, marked(name, getattr(L, name)))
        return seen

    def _assert_untaped(self, results, passes):
        for name in passes:
            inside = [taped for where, taped, _ in results if where == name]
            assert inside and not any(inside), name

    def _assert_training_taped(self, results):
        training = [taped for where, taped, grad_parent in results if where == "_sgd_epoch" and grad_parent]
        assert training and all(training)

    def test_train_template(self, tiny_splits, results):
        train, val = tiny_splits
        sched = L.TrainSchedule(warmup_epochs=1, main_epochs=1, batch_size=4, seed=2)
        L.train_template(TemplateNetwork(CFG2, seed=2), GateParams.for_config(CFG2), train, val, sched,
                         ObjectiveConfig(k=1.0, n_train=len(train)))
        self._assert_untaped(results, ("evaluate_strategy", "_epoch_nll"))
        self._assert_training_taped(results)

    def test_train_standalone(self, tiny_splits, results):
        train, val = tiny_splits
        sched = L.TrainSchedule(warmup_epochs=0, main_epochs=2, batch_size=4, seed=2)
        L.train_standalone(strategy_from_literature("top_heavy", CFG2.total_layers), CFG2, train, val, sched)
        self._assert_untaped(results, ("evaluate_strategy",))
        self._assert_training_taped(results)

    def test_evaluate_strategy(self, tiny_splits, results):
        train, val = tiny_splits
        net = _warmed_up(CFG2, train, val)
        assert len(net.transitions) == 1
        draws = L.sample_strategies(GateParams.for_config(CFG2, init_drop=0.3), 8, np.random.default_rng(4))
        counts = []
        for recalibrate in (None, train):
            results.clear()
            L.evaluate_strategy(net, draws, val, recalibrate=recalibrate)
            self._assert_untaped(results, ("evaluate_strategy",))
            counts.append(len(results))
        assert counts[1] > counts[0]  # the recalibration walk ran, untaped too


class TestReports:
    def test_layer_preference_rows(self):
        params = GateParams.for_config(CFG, init_drop=0.25)
        best = strategy_from_literature("top_heavy", CFG.total_layers)
        rows = L.layer_preference_report(params, best)
        assert [r["layer"] for r in rows] == [1, 2]
        for r in rows:
            assert list(r) == L.PREFERENCE_HEADER
            assert r["freq_S"] + r["freq_ST"] + r["freq_SST"] + r["freq_skip"] == pytest.approx(1.0, abs=1e-12)
            assert r["eq7_S"] == pytest.approx(1 - np.sqrt(r["p_S"]), abs=1e-12)
            assert r["eq7_ST"] == pytest.approx(1 - np.sqrt(r["p_ST"]), abs=1e-12)
        assert [r["chosen_unit"] for r in rows] == ["S", "ST"]

    def test_preference_csv(self, tmp_path):
        params = GateParams.for_config(CFG, init_drop=0.25)
        best = strategy_from_literature("bottom_heavy", CFG.total_layers)
        path = tmp_path / "pref.csv"
        L.write_csv(path, L.PREFERENCE_HEADER, L.layer_preference_report(params, best))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == L.PREFERENCE_HEADER
        assert len(lines) == 1 + CFG.total_layers

    def test_evaluations_csv_sorted(self, tmp_path):
        evals = [make_eval(0.5, tag=0), make_eval(0.9, tag=1), make_eval(0.7, tag=2)]
        path = tmp_path / "evals.csv"
        L.write_evaluations_csv(evals, path)
        import csv as csvmod
        with open(path) as f:
            rows = list(csvmod.DictReader(f))
        accs = [float(r["val_accuracy"]) for r in rows]
        assert accs == sorted(accs, reverse=True)
        json.loads(rows[0]["strategy_json"])  # strategy column is valid JSON
