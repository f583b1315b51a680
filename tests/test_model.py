import dataclasses
import json

import numpy as np
import pytest

from stfusion import lab as L
from stfusion import tensor as T
from stfusion.errors import ConfigurationError, ContractError, ShapeError, SizeGuardError
from stfusion.gates import GateParams, GateSample, LayerGates, sample_gates_concrete, sample_gates_hard
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
from conftest import fd_gradient, strategy_from_literature

SMALL = TemplateConfig(
    num_blocks=1, layers_per_block=2, growth_channels=4, stem_channels=4,
    clip_shape=(1, 4, 8, 8), num_classes=3,
)
TWO_BLOCK = TemplateConfig(
    num_blocks=2, layers_per_block=2, growth_channels=3, stem_channels=4,
    clip_shape=(1, 4, 8, 8), num_classes=3,
)


def one_layer_blocks(num_blocks):
    """One layer per block, so that a hand splice crosses each Transition."""
    return TemplateConfig(num_blocks=num_blocks, layers_per_block=1, growth_channels=3,
                          stem_channels=2, clip_shape=(1, 4, 6, 6), num_classes=2)


def warm_up_batch_norms(net, rng, batch=6):
    """Initialize every BN's running stats with one all-on train pass."""
    x = T.Tensor(rng.normal(size=(batch,) + tuple(net.config.clip_shape)))
    net.forward(x, GateSample.all_on(net.config), training=True)
    return x


def expected_param_count(cfg):
    """Closed-form tally from the dense-connectivity formula, written
    independently of the network construction code."""
    c, t, h, w = cfg.clip_shape
    kt = kh = kw = 3  # every gated conv is 3x3, or 3 taps
    g = cfg.growth_channels
    total = cfg.stem_channels * c * kh * kw  # stem
    channels = cfg.stem_channels
    for b in range(cfg.num_blocks):
        for j in range(cfg.layers_per_block):
            in_ch = channels + j * g
            total += 2 * in_ch + g * in_ch * kh * kw          # S: bn + conv2d
            total += 2 * in_ch + g * in_ch * kh * kw          # ST: bn1 + conv2d
            total += 2 * g + g * g * kt                       # ST: bn2 + conv1d
        channels += cfg.layers_per_block * g
        if b < cfg.num_blocks - 1:
            out_ch = channels // 2
            total += 2 * channels + out_ch * channels          # transition bn + 1x1 conv
            channels = out_ch
    total += 2 * channels + cfg.num_classes * channels         # final bn + head
    return total


class TestBuildTemplate:
    def test_single_layer_construction_counts(self):
        cfg = TemplateConfig(num_blocks=1, layers_per_block=1, growth_channels=2,
                             stem_channels=2, clip_shape=(1, 4, 6, 6), num_classes=2)
        net = TemplateNetwork(cfg, seed=0)
        params = GateParams.for_config(cfg)
        assert sum(len(lg.edges) + 2 for lg in GateSample.all_on(cfg).layers) == 3
        assert params.num_layers == 1
        layer = net.layer_list()[0]
        assert layer.conv_s.data.shape == (2, 2, 3, 3)
        assert layer.conv_st2d.data.shape == (2, 2, 3, 3)
        assert layer.conv_st1d.data.shape == (2, 2, 3)

    def test_gate_site_count_two_by_two(self):
        net = TemplateNetwork(TWO_BLOCK, seed=0)
        sample = GateSample.all_on(TWO_BLOCK)
        assert len(sample.layers) == 4
        # three gate sites per layer (edge group, S, ST)
        assert 3 * len(sample.layers) == 12

    @pytest.mark.parametrize("cfg", [SMALL, TWO_BLOCK])
    def test_parameter_count_closed_form(self, cfg):
        net = TemplateNetwork(cfg, seed=3)
        assert sum(p.data.size for p in net.parameters()) == expected_param_count(cfg)

    def test_unique_identifiers(self):
        net = TemplateNetwork(TWO_BLOCK, seed=0)
        ids = [p.identifier for p in net.parameters()]
        assert len(ids) == len(set(ids))

    def test_gated_parameters_follow_gate_sites(self):
        net = TemplateNetwork(TWO_BLOCK, seed=0)
        blocks = net.blocks[0] + net.blocks[1]
        # Tensors compare by identity, so this checks each kernel object, not its values.
        assert net.gated_parameters() == [
            (i, site, kernel)
            for i, layer in enumerate(blocks, start=1)
            for site, kernel in (("S", layer.conv_s), ("ST", layer.conv_st2d), ("ST", layer.conv_st1d))
        ]

    def test_clip_too_small_for_pooling(self):
        with pytest.raises(ConfigurationError, match="minimum H, W"):
            TemplateConfig(num_blocks=4, layers_per_block=1, growth_channels=2,
                           stem_channels=2, clip_shape=(1, 4, 6, 6), num_classes=2)

    def test_seeded_init_deterministic(self):
        a = TemplateNetwork(SMALL, seed=5)
        b = TemplateNetwork(SMALL, seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_dense_shape_safety(self):
        net = TemplateNetwork(TWO_BLOCK, seed=0)
        for block_idx, block in enumerate(net.blocks):
            for j, layer in enumerate(block):
                block_in = net.config.stem_channels if block_idx == 0 else net.transitions[block_idx - 1].out_channels
                assert layer.in_channels == block_in + j * net.config.growth_channels


class TestStateDict:
    def test_load_into_other_seed_reproduces_forward(self):
        source = TemplateNetwork(TWO_BLOCK, seed=0)
        rng = np.random.default_rng(11)
        gates = GateSample.all_on(TWO_BLOCK)
        for _ in range(2):  # move BN running statistics off their first-batch values
            source.forward(T.Tensor(rng.normal(size=(3,) + TWO_BLOCK.clip_shape)), gates, training=True)
        state = source.state_dict()
        assert {"stem/conv2d", "layer1/S/bn/running_mean", "final_bn/initialized"} <= set(state)
        target = TemplateNetwork(TWO_BLOCK, seed=1)
        target.load_state_dict(state)
        x = T.Tensor(rng.normal(size=(2,) + TWO_BLOCK.clip_shape))
        assert np.array_equal(target.forward(x, gates, training=False).data,
                              source.forward(x, gates, training=False).data)
        for a, b in zip(source.batch_norms(), target.batch_norms()):
            assert a.running is not None and b.running is not None
            assert np.array_equal(a.running[0], b.running[0])
            assert np.array_equal(a.running[1], b.running[1])

    def test_growth_mismatch_names_parameter(self):
        wider = TemplateNetwork(dataclasses.replace(SMALL, growth_channels=5), seed=0)
        with pytest.raises(ShapeError, match="layer1/S/conv2d"):
            TemplateNetwork(SMALL, seed=0).load_state_dict(wider.state_dict())

    def test_layout_mismatch_names_keys(self):
        with pytest.raises(ShapeError, match="transition1/conv2d"):
            TemplateNetwork(SMALL, seed=0).load_state_dict(TemplateNetwork(TWO_BLOCK, seed=0).state_dict())


class TestForwardWithGates:
    def test_all_ones_equals_ungated(self, rng):
        net = TemplateNetwork(SMALL, seed=0)
        x = warm_up_batch_norms(net, rng)
        full = strategy_from_literature("mixed_everywhere", SMALL.total_layers)
        a = net.forward(x, GateSample.all_on(SMALL), training=False).data
        b = Subnetwork(net, full).forward(x).data
        assert np.array_equal(a, b)

    def test_dropped_s_branch_ignores_s_kernels(self, rng):
        net = TemplateNetwork(SMALL, seed=0)
        x = warm_up_batch_norms(net, rng)
        gates = GateSample.all_on(SMALL)
        for lg in gates.layers:
            lg.s = 0.0
        before = net.forward(x, gates, training=False).data.copy()
        for layer in net.layer_list():
            layer.conv_s.data += 100.0
        after = net.forward(x, gates, training=False).data
        assert np.array_equal(before, after)

    def test_half_gate_matches_hand_splice(self, rng):
        for num_blocks in (1, 2):  # with two blocks the splice crosses a Transition
            cfg = one_layer_blocks(num_blocks)
            net = TemplateNetwork(cfg, seed=2)
            x = warm_up_batch_norms(net, rng)
            gates = GateSample.all_on(cfg)
            for lg in gates.layers:
                lg.s = 0.5
            got = net.forward(x, gates, training=False).data

            # hand-spliced forward with each S branch activation halved
            h = T.conv2d_spatial(x, net.stem, 1)
            for b, [layer] in enumerate(net.blocks):
                s_out = T.scale(layer.branch_s(h, False), 0.5)
                st_out = layer.branch_st(h, False)
                feats = T.concat_channels([h, T.add(s_out, st_out)])
                if b < len(net.transitions):
                    tr = net.transitions[b]
                    h = T.avg_pool_spatial(T.conv2d_spatial(T.relu(tr.bn(feats, False)), tr.conv, 0))
            feats = T.relu(net.final_bn(feats, False))
            expected = T.pool_and_classify(feats, net.head).data
            assert np.array_equal(got, expected), f"{num_blocks} blocks"

    def test_nll_gradient_wrt_gate_logits(self, rng):
        cfg = one_layer_blocks(2)
        net = TemplateNetwork(cfg, seed=2)
        params = GateParams.for_config(cfg, init_drop=0.3)
        x = T.Tensor(rng.normal(size=(4,) + cfg.clip_shape))
        labels = [0, 1, 1, 0]

        def nll():
            gates = sample_gates_concrete(params, np.random.default_rng(0))
            return T.softmax_cross_entropy(net.forward(x, gates, training=True), labels)

        # One norm over every logit: in train mode batch norm cancels an edge
        # gate's scale up to its epsilon, so an edge logit's own gradient can be
        # too small for a relative check of its own.
        logits = params.trainable_tensors()
        T.backward(nll())
        analytic = np.array([float(t.grad) for t in logits])
        fd = np.array([float(fd_gradient(nll, t)) for t in logits])
        assert np.linalg.norm(analytic - fd) < 1e-6 * np.linalg.norm(fd)

    def test_gate_count_mismatch(self, rng):
        net = TemplateNetwork(SMALL, seed=0)
        x = T.Tensor(rng.normal(size=(1, 1, 4, 8, 8)))
        gates = GateSample.all_on(SMALL)
        gates.layers = gates.layers[:-1]
        with pytest.raises(ContractError):
            net.forward(x, gates, training=True)


class TestMaterializeAndRecover:
    def test_full_strategy_equals_ungated(self, rng):
        net = TemplateNetwork(SMALL, seed=1)
        x = warm_up_batch_norms(net, rng)
        full = strategy_from_literature("mixed_everywhere", 2)
        sub = Subnetwork(net, full)
        assert np.array_equal(sub.forward(x).data, net.forward(x, GateSample.all_on(SMALL), training=False).data)

    def test_all_skipped_depends_only_on_stem_and_head(self, rng):
        net = TemplateNetwork(SMALL, seed=1)
        x = warm_up_batch_norms(net, rng)
        skipped = FusionStrategy(layers=tuple(
            StrategyLayer(l=i, v=(True,) * i, u=FusionUnitKind.SKIP) for i in range(1, 3)
        ))
        sub = Subnetwork(net, skipped)
        before = sub.forward(x).data.copy()
        for layer in net.layer_list():
            layer.conv_s.data += 7.0
            layer.conv_st2d.data -= 3.0
            layer.conv_st1d.data += 1.0
        assert np.array_equal(sub.forward(x).data, before)

    def test_all_nine_strategies_match_hard_gates(self, rng):
        net = TemplateNetwork(SMALL, seed=4)
        x = warm_up_batch_norms(net, rng)
        for strategy in enumerate_all_strategies(2):
            sub = Subnetwork(net, strategy)
            gates = gates_from_strategy(strategy, (1, 2))
            assert np.array_equal(sub.forward(x).data, net.forward(x, gates, training=False).data)

    def test_recover_truth_table_all_on(self):
        cfg = SMALL
        gates = GateSample.all_on(cfg)
        strategy = recover_strategy(gates)
        assert all(layer.u == FusionUnitKind.S_PLUS_ST for layer in strategy.layers)
        assert all(all(layer.v) for layer in strategy.layers)

    def test_recover_truth_table_st_only(self):
        gates = GateSample.all_on(SMALL)
        for lg in gates.layers:
            lg.s = 0.0
        strategy = recover_strategy(gates)
        assert all(layer.u == FusionUnitKind.ST for layer in strategy.layers)

    def test_recover_skip(self):
        gates = GateSample.all_on(SMALL)
        gates.layers[1].s = 0.0
        gates.layers[1].st = 0.0
        strategy = recover_strategy(gates)
        assert strategy.layers[1].u is FusionUnitKind.SKIP

    def test_strategy_gate_round_trip(self):
        params = GateParams.for_config(TWO_BLOCK, init_drop=0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = sample_gates_hard(params, rng)
            g2 = gates_from_strategy(recover_strategy(g), (TWO_BLOCK.num_blocks, TWO_BLOCK.layers_per_block))
            for a, b in zip(g.layers, g2.layers):
                assert a.edges == b.edges
                assert (a.s, a.st) == (b.s, b.st)

    def test_materialize_recover_forward_identity(self, rng):
        net = TemplateNetwork(TWO_BLOCK, seed=9)
        x = warm_up_batch_norms(net, rng)
        params = GateParams.for_config(TWO_BLOCK, init_drop=0.4)
        grng = np.random.default_rng(11)
        for _ in range(100):
            g = sample_gates_hard(params, grng)
            sub = Subnetwork(net, recover_strategy(g))
            assert np.array_equal(sub.forward(x).data, net.forward(x, g, training=False).data)

    def test_monotone_capacity_subsets(self):
        net = TemplateNetwork(SMALL, seed=0)
        def ids(unit):
            layers = tuple(StrategyLayer(l=i, v=(True,) * i, u=unit) for i in range(1, 3))
            return {p.identifier for p in Subnetwork(net, FusionStrategy(layers=layers)).active_parameters()}
        s_ids = ids(FusionUnitKind.S)
        both_ids = ids(FusionUnitKind.S_PLUS_ST)
        template_ids = {p.identifier for p in net.parameters()}
        assert s_ids <= both_ids <= template_ids
        assert s_ids < both_ids  # the S view drops the ST kernels


class TestEnumerate:
    @pytest.mark.parametrize("L,count", [(1, 3), (2, 9), (3, 27)])
    def test_counts(self, L, count):
        strategies = enumerate_all_strategies(L)
        assert len(strategies) == count
        keys = {tuple(layer.u for layer in s.layers) for s in strategies}
        assert len(keys) == count

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_all_strategies(11)


class TestStrategySerialization:
    def test_round_trip(self):
        s = strategy_from_literature("top_heavy", 4)
        assert FusionStrategy.from_json(s.to_json()) == s

    def test_json_schema(self):
        s = strategy_from_literature("top_heavy", 2)
        obj = json.loads(json.dumps(s.to_json()))
        assert obj["L"] == 2
        assert obj["layers"][0] == {"l": 1, "v": [1], "u": "S"}
        assert obj["layers"][1]["u"] == "ST"

    def test_skip_serialization(self):
        layers = (StrategyLayer(l=1, v=(True,), u=FusionUnitKind.SKIP),)
        s = FusionStrategy(layers=layers)
        assert s.to_json()["layers"][0]["u"] == "skip"
        assert FusionStrategy.from_json(s.to_json()) == s

    def test_validate_accepts_active_layer_without_inputs(self):
        # in the space: its zero input still passes batch norm's shift into the convs
        s = FusionStrategy(layers=(StrategyLayer(l=1, v=(False,), u=FusionUnitKind.S),))
        assert s.validate() is s

    def test_validate_rejects_a_misnumbered_layer(self):
        with pytest.raises(ContractError, match="carries index 2"):
            FusionStrategy(layers=(StrategyLayer(l=2, v=(True,), u=FusionUnitKind.S),)).validate()
        with pytest.raises(ContractError, match="length 2, expected 1"):
            FusionStrategy(layers=(StrategyLayer(l=1, v=(True, True), u=FusionUnitKind.S),)).validate()

    def test_every_posterior_draw_is_in_the_space(self):
        draws = L.sample_strategies(GateParams.for_config(TWO_BLOCK, init_drop=0.5), 200, np.random.default_rng(0))
        assert any(layer.u is not FusionUnitKind.SKIP and not any(layer.v) for s in draws for layer in s.layers)
        for s in draws:
            assert FusionStrategy.from_json(json.loads(json.dumps(s.validate().to_json()))) == s
            assert recover_strategy(gates_from_strategy(s, (TWO_BLOCK.num_blocks, TWO_BLOCK.layers_per_block))) == s

    def test_layers_are_frozen_to_a_tuple(self):
        s = FusionStrategy(layers=[StrategyLayer(l=1, v=(True,), u=FusionUnitKind.ST)])
        assert s.layers == (StrategyLayer(l=1, v=(True,), u=FusionUnitKind.ST),)
        assert len({s, FusionStrategy(layers=s.layers)}) == 1
