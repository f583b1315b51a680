import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stfusion import lab as L
from stfusion import tensor as T
from stfusion.errors import ContractError, DomainError
from stfusion.gates import (
    GateParams,
    ObjectiveConfig,
    marginal_eq7,
    objective,
    sample_gates_concrete,
    sample_gates_hard,
    temperature_schedule,
    unit_composition,
)
from stfusion.model import TemplateConfig, TemplateNetwork
from conftest import fd_gradient, monte_carlo_unit_marginal

CFG = TemplateConfig(
    num_blocks=1, layers_per_block=2, growth_channels=3, stem_channels=3,
    clip_shape=(1, 4, 8, 8), num_classes=2,
)


def set_all_drop(params, p):
    z = math.log(p / (1 - p)) if 0 < p < 1 else (60.0 if p >= 1 else -60.0)
    for lg in params.layers:
        lg.edge.data = np.float64(z)
        lg.s.data = np.float64(z)
        lg.st.data = np.float64(z)


def three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


class TestHardSampling:
    def test_all_keep_when_p_zero(self):
        params = GateParams.for_config(CFG)
        set_all_drop(params, 0.0)
        g = sample_gates_hard(params, np.random.default_rng(0))
        for lg in g.layers:
            assert all(e == 1.0 for e in lg.edges) and lg.s == 1.0 and lg.st == 1.0

    def test_all_drop_when_p_one(self):
        params = GateParams.for_config(CFG)
        set_all_drop(params, 1.0)
        g = sample_gates_hard(params, np.random.default_rng(0))
        for lg in g.layers:
            assert all(e == 0.0 for e in lg.edges) and lg.s == 0.0 and lg.st == 0.0

    def test_empirical_keep_rate(self):
        params = GateParams.for_config(CFG, init_drop=0.3)
        rng = np.random.default_rng(5)
        n = 100000
        keeps = sum(sample_gates_hard(params, rng).layers[0].s for _ in range(n))
        assert abs(keeps / n - 0.7) < three_sigma(0.7, n)

    def test_edges_draw_independently_under_shared_p(self):
        params = GateParams.for_config(CFG, init_drop=0.5)
        rng = np.random.default_rng(2)
        draws = [tuple(sample_gates_hard(params, rng).layers[1].edges) for _ in range(200)]
        assert len(set(draws)) > 1


class TestConcreteSampling:
    def test_symmetric_point(self):
        # u = 0.5, keep probability 0.5 -> relaxed gate exactly 0.5 at any tau
        for tau in (0.1, 1.0, 5.0):
            z = T.Tensor(np.float64(0.0), requires_grad=True)  # p = 0.5
            from stfusion.gates import _concrete_site
            eps = _concrete_site(z, 0.5, tau)
            assert abs(eps.item() - 0.5) < 1e-12

    def test_zero_temperature_limit(self):
        from stfusion.gates import _concrete_site
        z = T.Tensor(np.float64(math.log(0.3 / 0.7)))  # drop p = 0.3, keep 0.7
        for u, expect in ((0.9, 1.0), (0.1, 0.0), (0.31, 1.0)):
            eps = _concrete_site(z, u, 1e-8)
            assert abs(eps.item() - (1.0 if 0.7 > 1 - u else 0.0)) < 1e-9
            assert abs(eps.item() - expect) < 1e-9

    def test_tau_must_be_positive(self):
        params = GateParams.for_config(CFG)
        params.tau = 0.0
        with pytest.raises(ContractError):
            sample_gates_concrete(params, np.random.default_rng(0))

    def test_gradient_vs_finite_differences(self):
        from stfusion.gates import _concrete_site
        for seed, (u, p, tau) in enumerate([(0.3, 0.2, 0.5), (0.7, 0.6, 1.0), (0.45, 0.5, 0.2), (0.9, 0.1, 2.0)]):
            z = T.Tensor(np.float64(math.log(p / (1 - p))), requires_grad=True)
            make = lambda: _concrete_site(z, u, tau)
            T.backward(make())
            fd = fd_gradient(make, z, h=1e-6)
            assert abs(z.grad - fd) / max(abs(fd), 1e-8) < 1e-4

    def test_relaxation_consistency(self):
        params = GateParams.for_config(CFG, init_drop=0.35)
        hard = sample_gates_hard(params, np.random.default_rng(42))
        prev_gap = None
        for tau in (1.0, 0.5, 0.1, 0.01):
            params.tau = tau
            relaxed = sample_gates_concrete(params, np.random.default_rng(42))
            gaps = []
            for hl, rl in zip(hard.layers, relaxed.layers):
                gaps.extend(abs(h - r.item()) for h, r in zip(hl.edges, rl.edges))
                gaps.append(abs(hl.s - rl.s.item()))
                gaps.append(abs(hl.st - rl.st.item()))
            gap = max(gaps)
            if prev_gap is not None:
                assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap < 1e-6


class TestObjective:
    def _nll(self, value=1.25):
        return T.Tensor(np.float64(value))

    def test_p_one_zeroes_both_regularizers(self):
        net = TemplateNetwork(CFG, seed=0)
        params = GateParams.for_config(CFG)
        set_all_drop(params, 1.0)
        cfg = ObjectiveConfig(k=2.0, n_train=10)
        bd = objective(self._nll(), params, net.gated_parameters(), cfg)
        assert abs(bd.entropy_term) < 1e-9
        assert abs(bd.weight_term) < 1e-9
        assert abs(bd.total - bd.nll) < 1e-9

    def test_p_half_single_gate_arithmetic(self):
        # one layer, one weight with ||w||^2 = 2, k = 1, N = 1
        params = GateParams(blocks=(1, 1))
        set_all_drop(params, 0.5)
        w = T.Parameter(np.array([1.0, 1.0]), "layer1/S/conv2d")
        cfg = ObjectiveConfig(k=1.0, n_train=1)
        bd = objective(self._nll(0.0), params, [(1, "S", w)], cfg)
        # weight term: 1^2 * (1-0.5) / 2 * 2 = 0.5
        assert abs(bd.weight_term - 0.5) < 1e-9
        # entropy over 3 sites (edge, S, ST), each 0.5*ln 0.5
        assert abs(bd.entropy_term - 3 * 0.5 * math.log(0.5)) < 1e-9
        single_site = 0.5 * math.log(0.5)
        assert abs(single_site - (-0.34657359)) < 1e-7

    def test_p_to_zero_boundary(self):
        net = TemplateNetwork(CFG, seed=0)
        params = GateParams.for_config(CFG)
        set_all_drop(params, 0.0)  # logit -60, p ~ 1e-26
        cfg = ObjectiveConfig(k=3.0, n_train=7)
        bd = objective(self._nll(), params, net.gated_parameters(), cfg)
        assert abs(bd.entropy_term) < 1e-9
        expected = sum(9.0 / (2 * 7) * np.sum(w.data ** 2) for _, _, w in net.gated_parameters())
        assert abs(bd.weight_term - expected) < 1e-9 * max(1.0, expected)

    def test_total_is_exact_sum(self):
        net = TemplateNetwork(CFG, seed=1)
        params = GateParams.for_config(CFG, init_drop=0.23)
        bd = objective(self._nll(0.7), params, net.gated_parameters(), ObjectiveConfig(k=1.5, n_train=12))
        assert bd.total == (bd.nll + bd.entropy_term) + bd.weight_term

    def test_gradient_wrt_logits_vs_finite_differences(self):
        params = GateParams(blocks=(1, 2), init_drop=0.3)
        w1 = T.Parameter(np.array([0.5, -1.0]), "layer1/S/conv2d")
        w2 = T.Parameter(np.array([2.0]), "layer2/ST/conv1d")
        cfg = ObjectiveConfig(k=1.3, n_train=4)

        def make():
            return objective(self._nll(0.9), params, [(1, "S", w1), (2, "ST", w2)], cfg).total_tensor

        T.backward(make())
        for z in params.trainable_tensors() + [w1, w2]:
            analytic = z.grad.copy()
            fd = fd_gradient(make, z, h=1e-6)
            err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)
            assert err < 1e-4


class TestDropProbs:
    def test_bit_equal_to_the_objectives_sigmoid(self):
        params = GateParams(blocks=(1, 100))
        logits = np.random.default_rng(0).normal(-2.0, 1.5, size=(params.num_layers, 3))
        for lg, row in zip(params.layers, logits):
            for z, value in zip(lg, row):
                z.data = np.float64(value)
        expected = [tuple(T.sigmoid(z).item() for z in lg) for lg in params.layers]
        assert params.drop_probs() == expected


class TestMarginals:
    @pytest.mark.parametrize("p,expected", [(0.0, 1.0), (0.25, 0.5), (1.0, 0.0)])
    def test_eq7_values(self, p, expected):
        assert marginal_eq7(p) == expected

    def test_eq7_domain(self):
        with pytest.raises(DomainError):
            marginal_eq7(1.5)
        with pytest.raises(DomainError):
            marginal_eq7(-0.1)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False),
        st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False),
    )
    def test_eq7_monotone_decreasing(self, a, b):
        if a < b:
            assert marginal_eq7(a) >= marginal_eq7(b)
            if b - a > 1e-9:
                assert marginal_eq7(a) > marginal_eq7(b)

    def test_eq7_continuous_on_grid(self):
        grid = np.linspace(0.0, 1.0, 10001)
        vals = np.array([marginal_eq7(p) for p in grid])
        assert np.all(np.diff(vals) < 0)
        assert np.abs(np.diff(vals)).max() < 0.02  # no jumps at this resolution

    def test_composition_degenerate(self):
        assert unit_composition(0.0, 0.0) == {"S": 0.0, "ST": 0.0, "S+ST": 1.0, "skip": 0.0}

    def test_monte_carlo_degenerate(self):
        params = GateParams.for_config(CFG)
        set_all_drop(params, 0.0)
        freqs = monte_carlo_unit_marginal(params, 1, 100, np.random.default_rng(0))
        assert freqs["S+ST"] == 1.0
        params2 = GateParams.for_config(CFG)
        params2.layers[0].s.data = np.float64(40.0)   # p_S = 1
        params2.layers[0].st.data = np.float64(-40.0)  # p_ST = 0
        freqs2 = monte_carlo_unit_marginal(params2, 1, 100, np.random.default_rng(0))
        assert freqs2["ST"] == 1.0

    def test_monte_carlo_matches_composition(self):
        params = GateParams.for_config(CFG, init_drop=0.5)
        n = 100000
        freqs = monte_carlo_unit_marginal(params, 2, n, np.random.default_rng(3))
        assert abs(sum(freqs.values()) - 1.0) < 1e-12
        for key, expect in unit_composition(0.5, 0.5).items():
            assert abs(freqs[key] - expect) < three_sigma(expect, n)


class TestTemperatureSchedule:
    def test_endpoints_and_midpoint(self):
        assert temperature_schedule(0, 10) == 1.0
        assert abs(temperature_schedule(10, 10) - 0.1) < 1e-15
        assert abs(temperature_schedule(5, 10) - 0.55) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            temperature_schedule(11, 10)


class TestCheckpoint:
    def test_json_round_trip(self, tmp_path):
        params = GateParams.for_config(CFG, init_drop=0.17, tau=0.4)
        params.layers[1].st.data = np.float64(1.3)
        path = tmp_path / "gates.json"
        L.write_json(path, params.to_json())
        loaded = GateParams.load(path)
        for (a, b, c), (d, e, f) in zip(params.drop_probs(), loaded.drop_probs()):
            assert abs(a - d) < 1e-9 and abs(b - e) < 1e-9 and abs(c - f) < 1e-9
        assert loaded.tau == params.tau
        assert loaded.edge_counts == params.edge_counts

    def test_schema(self, tmp_path):
        params = GateParams.for_config(CFG)
        path = tmp_path / "gates.json"
        L.write_json(path, params.to_json())
        obj = json.loads(path.read_text())
        assert set(obj) >= {"layers", "tau"}
        assert set(obj["layers"][0]) == {"p_edge", "p_S", "p_ST"}
