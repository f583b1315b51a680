"""Fusion strategies and the densely connected gated template network.

A strategy assigns each layer a triplet (l, v, u): layer index, a boolean
input-selection vector, and a fusion unit (spatial S, spatiotemporal ST,
both, or skipped). The template network holds every branch of every
strategy; strategies are materialized as hard-gated views sharing the
template's weights.

Input-vector convention: v has length l. Slot 0 selects the layer's block
input (the stem for the first block, the preceding transition otherwise);
slot i >= 1 selects global layer i when that layer lies in the same block,
and is ignored (False in recovered strategies) across block boundaries.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractError, ShapeError, SizeGuardError
from .gates import GateSample, LayerGates
from .tensor import BatchNorm, Parameter, Tensor


class FusionUnitKind(IntEnum):
    S = 0
    ST = 1
    S_PLUS_ST = 2


_UNIT_NAMES = {FusionUnitKind.S: "S", FusionUnitKind.ST: "ST", FusionUnitKind.S_PLUS_ST: "S+ST"}
_UNIT_FROM_NAME = {v: k for k, v in _UNIT_NAMES.items()}
_UNIT_FROM_NAME["skip"] = None

# The branch gate sites each unit keeps, (keep_S, keep_ST); skip keeps neither.
_UNIT_SITES = {
    None: (False, False),
    FusionUnitKind.S: (True, False),
    FusionUnitKind.ST: (False, True),
    FusionUnitKind.S_PLUS_ST: (True, True),
}
_UNIT_OF_SITES = {sites: u for u, sites in _UNIT_SITES.items()}


def unit_name(u) -> str:
    return "skip" if u is None else _UNIT_NAMES[u]


@dataclass(frozen=True)
class StrategyLayer:
    l: int                       # 1-based global layer index
    v: tuple                     # booleans, length l
    u: object                    # FusionUnitKind or None (skipped)


@dataclass(frozen=True)
class FusionStrategy:
    layers: tuple

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def validate(self):
        for i, layer in enumerate(self.layers, start=1):
            if layer.l != i:
                raise ContractError(f"strategy layer {i} carries index {layer.l}")
            if len(layer.v) != i:
                raise ContractError(f"layer {i} input vector has length {len(layer.v)}, expected {i}")
            if layer.u is not None and not any(layer.v):
                raise ContractError(f"layer {i} is active but selects no inputs")
        return self

    def to_json(self) -> dict:
        return {
            "L": self.num_layers,
            "layers": [
                {"l": layer.l, "v": [1 if b else 0 for b in layer.v], "u": unit_name(layer.u)}
                for layer in self.layers
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FusionStrategy":
        layers = []
        for i, rec in enumerate(obj["layers"], start=1):
            u = rec["u"]
            if u not in _UNIT_FROM_NAME:
                raise ContractError(f"strategy layer {i} has unknown unit {u!r}; units: {', '.join(_UNIT_FROM_NAME)}")
            layers.append(StrategyLayer(l=rec["l"], v=tuple(bool(b) for b in rec["v"]), u=_UNIT_FROM_NAME[u]))
        if len(layers) != obj["L"]:
            raise ContractError(f"strategy JSON claims L={obj['L']} but lists {len(layers)} layers")
        return cls(layers=tuple(layers))


def strategy_from_literature(name: str, num_layers: int) -> FusionStrategy:
    """Reference strategies: top-heavy, bottom-heavy, and mixed-everywhere."""
    half = num_layers // 2
    if name == "top_heavy":
        units = [FusionUnitKind.S] * half + [FusionUnitKind.ST] * (num_layers - half)
    elif name == "bottom_heavy":
        units = [FusionUnitKind.S] * half + [FusionUnitKind.ST] * (num_layers - half)
        units = units[::-1]
    elif name == "mixed_everywhere":
        units = [FusionUnitKind.S_PLUS_ST] * num_layers
    else:
        raise ConfigurationError(
            f"unknown literature strategy {name!r}; options: top_heavy, bottom_heavy, mixed_everywhere"
        )
    layers = tuple(
        StrategyLayer(l=i, v=(True,) * i, u=units[i - 1]) for i in range(1, num_layers + 1)
    )
    return FusionStrategy(layers=layers)


def enumerate_all_strategies(num_layers: int) -> list:
    """All 3^L unit assignments with every edge enabled, lexicographic order."""
    count = 3 ** num_layers
    if count > 100000:
        raise SizeGuardError(f"3^{num_layers} = {count} strategies exceeds the 100000 guard")
    return [
        FusionStrategy(layers=tuple(
            StrategyLayer(l=i, v=(True,) * i, u=FusionUnitKind(d)) for i, d in enumerate(digits, start=1)
        ))
        for digits in itertools.product(range(3), repeat=num_layers)
    ]


# ---------------------------------------------------------------------------
# template network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateConfig:
    num_blocks: int
    layers_per_block: int
    growth_channels: int
    stem_channels: int
    clip_shape: tuple            # (C, T, H, W)
    num_classes: int
    kernel_sizes: tuple = (3, 3, 3)   # (kt, kh, kw)

    def __post_init__(self):
        for name in ("num_blocks", "layers_per_block", "growth_channels", "stem_channels", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if len(self.clip_shape) != 4 or any(x < 1 for x in self.clip_shape):
            raise ConfigurationError(f"clip_shape must be four positive extents (C,T,H,W), got {self.clip_shape}")
        kt, kh, kw = self.kernel_sizes
        if kt % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
            raise ConfigurationError(f"kernel sizes must be odd, got {self.kernel_sizes}")
        if kh != kw:
            raise ConfigurationError(f"spatial kernels must be square (kh == kw), got {self.kernel_sizes}")
        divisor = 2 ** (self.num_blocks - 1)
        _, _, h, w = self.clip_shape
        if h % divisor != 0 or w % divisor != 0 or h < divisor or w < divisor:
            raise ConfigurationError(
                f"clip spatial extents {h}x{w} cannot pass {self.num_blocks - 1} pooling "
                f"transitions; minimum H, W is {divisor} (divisible by {divisor})"
            )

    @property
    def total_layers(self) -> int:
        return self.num_blocks * self.layers_per_block


def _uniform(rng, shape, fan_in, gain=6.0):
    bound = math.sqrt(gain / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class DenseLayer:
    """One gated layer: an S branch (2D conv) and an ST branch (2D then 1D conv)."""

    def __init__(self, global_index, in_channels, growth, kernel_sizes, rng):
        kt, kh, kw = kernel_sizes
        self.global_index = global_index
        self.in_channels = in_channels
        self.kh, self.kw, self.kt = kh, kw, kt
        prefix = f"layer{global_index}"
        self.bn_s = BatchNorm(in_channels, f"{prefix}/S/bn")
        self.conv_s = Parameter(
            _uniform(rng, (growth, in_channels, kh, kw), in_channels * kh * kw), f"{prefix}/S/conv2d"
        )
        self.bn_st1 = BatchNorm(in_channels, f"{prefix}/ST/bn1")
        self.conv_st2d = Parameter(
            _uniform(rng, (growth, in_channels, kh, kw), in_channels * kh * kw), f"{prefix}/ST/conv2d"
        )
        self.bn_st2 = BatchNorm(growth, f"{prefix}/ST/bn2")
        self.conv_st1d = Parameter(
            _uniform(rng, (growth, growth, kt), growth * kt), f"{prefix}/ST/conv1d"
        )

    def branch_s(self, x, training):
        h = T.relu(self.bn_s(x, training))
        return T.conv2d_spatial(h, self.conv_s, (self.kh - 1) // 2)

    def branch_st(self, x, training):
        h = T.relu(self.bn_st1(x, training))
        h = T.conv2d_spatial(h, self.conv_st2d, (self.kh - 1) // 2)
        h = T.relu(self.bn_st2(h, training))
        return T.conv1d_temporal(h, self.conv_st1d, (self.kt - 1) // 2)

    def branch_parameters(self, unit):
        """Parameters of the branches a fusion unit keeps (none when skipped)."""
        keep_s, keep_st = _UNIT_SITES[unit]
        s = [self.bn_s.gamma, self.bn_s.beta, self.conv_s]
        st = [
            self.bn_st1.gamma, self.bn_st1.beta, self.conv_st2d,
            self.bn_st2.gamma, self.bn_st2.beta, self.conv_st1d,
        ]
        return (s if keep_s else []) + (st if keep_st else [])

    def batch_norms(self):
        return [self.bn_s, self.bn_st1, self.bn_st2]


class Transition:
    """Ungated reduction between blocks: BN, relu, 1x1 conv, 2x2 average pool."""

    def __init__(self, index, in_channels, out_channels, rng):
        prefix = f"transition{index}"
        self.bn = BatchNorm(in_channels, f"{prefix}/bn")
        self.conv = Parameter(_uniform(rng, (out_channels, in_channels, 1, 1), in_channels), f"{prefix}/conv2d")
        self.out_channels = out_channels

    def __call__(self, x, training):
        h = T.relu(self.bn(x, training))
        h = T.conv2d_spatial(h, self.conv, 0)
        return T.avg_pool_spatial(h)

    def parameters(self):
        return [self.bn.gamma, self.bn.beta, self.conv]


def _apply_gate(feature: Tensor, gate) -> Tensor:
    if isinstance(gate, Tensor):
        return T.scale_t(feature, gate)
    g = float(gate)
    if g == 1.0:
        return feature
    if g == 0.0:
        return T.zeros(feature.shape)
    return T.scale(feature, g)


class TemplateNetwork:
    """Gated dense super-network over S/ST/S+ST fusion units."""

    def __init__(self, config: TemplateConfig, seed: int):
        self.config = config
        rng = np.random.default_rng(seed)
        c, t, h, w = config.clip_shape
        kt, kh, kw = config.kernel_sizes
        self.stem = Parameter(
            _uniform(rng, (config.stem_channels, c, kh, kw), c * kh * kw), "stem/conv2d"
        )
        self.blocks = []
        self.transitions = []
        channels = config.stem_channels
        global_index = 1
        for b in range(config.num_blocks):
            block = []
            block_in = channels
            for j in range(config.layers_per_block):
                in_ch = block_in + j * config.growth_channels
                block.append(DenseLayer(global_index, in_ch, config.growth_channels, (kt, kh, kw), rng))
                global_index += 1
            self.blocks.append(block)
            channels = block_in + config.layers_per_block * config.growth_channels
            if b < config.num_blocks - 1:
                out_ch = max(1, channels // 2)
                self.transitions.append(Transition(b + 1, channels, out_ch, rng))
                channels = out_ch
        self.final_bn = BatchNorm(channels, "final_bn")
        self.head = Parameter(
            _uniform(rng, (config.num_classes, channels), channels, gain=3.0), "head/weight"
        )

    # -- parameter bookkeeping ---------------------------------------------

    def parameters(self, units=None):
        """Parameters of a network keeping each layer's branches for `units` (every branch by default)."""
        if units is None:
            units = [FusionUnitKind.S_PLUS_ST] * self.config.total_layers
        params = [self.stem]
        for layer, unit in zip(self.layer_list(), units):
            params.extend(layer.branch_parameters(unit))
        for tr in self.transitions:
            params.extend(tr.parameters())
        params.extend([self.final_bn.gamma, self.final_bn.beta, self.head])
        ids = [p.identifier for p in params]
        assert len(ids) == len(set(ids)), "duplicate parameter identifiers"
        return params

    def gated_parameters(self):
        """(layer index, "S" | "ST", kernel) per branch conv kernel and the gate site governing it:
        each layer's conv_s under "S", then its conv_st2d and conv_st1d under "ST"."""
        return [
            (layer.global_index, site, p)
            for layer in self.layer_list()
            for site, unit in (("S", FusionUnitKind.S), ("ST", FusionUnitKind.ST))
            for p in layer.branch_parameters(unit) if p.data.ndim > 1
        ]

    def batch_norms(self):
        bns = [bn for layer in self.layer_list() for bn in layer.batch_norms()]
        return bns + [tr.bn for tr in self.transitions] + [self.final_bn]

    def layer_list(self):
        return [layer for block in self.blocks for layer in block]

    def state_dict(self) -> dict:
        """Every parameter and batch-norm running statistic, keyed by identifier."""
        state = {p.identifier: p.data.copy() for p in self.parameters()}
        for bn in self.batch_norms():
            for key, value in bn.state().items():
                state[f"{bn.prefix}/{key}"] = np.asarray(value, dtype=np.float64)
        return state

    def load_state_dict(self, state) -> None:
        """Load a `state_dict`; its keys and every shape must match this template."""
        own = self.state_dict()
        if set(state) != set(own):
            raise ShapeError(
                f"state does not match the template: missing {sorted(set(own) - set(state))}, "
                f"unexpected {sorted(set(state) - set(own))}"
            )
        for key, value in own.items():
            if np.shape(state[key]) != value.shape:
                raise ShapeError(f"{key} has shape {np.shape(state[key])}, template expects {value.shape}")
        for p in self.parameters():
            p.data = np.array(state[p.identifier], dtype=np.float64)
        for bn in self.batch_norms():
            bn.load_state({key: state[f"{bn.prefix}/{key}"] for key in bn.state()})

    # -- forward ------------------------------------------------------------
    # The steps of `forward` are public so that a caller evaluating several
    # gate samples can run the steps they share once (lab.evaluate_strategy).

    def forward(self, batch: Tensor, gates: GateSample, training: bool) -> Tensor:
        h = self.stem_step(batch)
        if len(gates.layers) != self.config.total_layers:
            raise ContractError(
                f"gate sample covers {len(gates.layers)} layers, network has {self.config.total_layers}"
            )
        idx = 0
        for b, block in enumerate(self.blocks):
            feats = [h]
            for layer in block:
                feats.append(self.layer_step(layer, feats, gates.layers[idx], training))
                idx += 1
            h = self.block_end_step(b, feats, training)
        return self.head_step(h, training)

    def stem_step(self, batch: Tensor) -> Tensor:
        clip_shape = tuple(self.config.clip_shape)
        if batch.shape[1:] != clip_shape:
            raise ShapeError(
                f"batch clip shape {tuple(batch.shape[1:])} does not match config clip shape {clip_shape}"
            )
        kh = self.config.kernel_sizes[1]
        return T.conv2d_spatial(batch, self.stem, (kh - 1) // 2)

    def layer_step(self, layer: DenseLayer, feats: list, lg: LayerGates, training: bool) -> Tensor:
        """Output of one dense layer from the features before it in its block."""
        if len(lg.edges) != len(feats):
            raise ContractError(
                f"layer {layer.global_index} has {len(feats)} incoming edges, "
                f"gate sample provides {len(lg.edges)}"
            )
        gated = [_apply_gate(f, g) for f, g in zip(feats, lg.edges)]
        inp = gated[0] if len(gated) == 1 else T.concat_channels(gated)
        out_shape = (inp.shape[0], self.config.growth_channels) + inp.shape[2:]
        s_dropped = isinstance(lg.s, float) and lg.s == 0.0
        st_dropped = isinstance(lg.st, float) and lg.st == 0.0
        s_out = T.zeros(out_shape) if s_dropped else _apply_gate(layer.branch_s(inp, training), lg.s)
        st_out = T.zeros(out_shape) if st_dropped else _apply_gate(layer.branch_st(inp, training), lg.st)
        return T.add(s_out, st_out)

    def block_end_step(self, b: int, feats: list, training: bool) -> Tensor:
        """Block b's features concatenated, then its transition if one follows."""
        h = T.concat_channels(feats)
        if b < len(self.transitions):
            h = self.transitions[b](h, training)
        return h

    def head_step(self, h: Tensor, training: bool) -> Tensor:
        return T.pool_and_classify(T.relu(self.final_bn(h, training)), self.head)


# ---------------------------------------------------------------------------
# strategy <-> gates
# ---------------------------------------------------------------------------

def _first_in_block(per_block: int, layer_index: int) -> int:
    """Global index of the first layer in the block holding a 1-based global layer index."""
    return layer_index - (layer_index - 1) % per_block


def gates_from_strategy(strategy: FusionStrategy, blocks) -> GateSample:
    """Hard gates implied by a strategy under the v-slot convention."""
    layers = []
    for layer in strategy.layers:
        first_in_block = _first_in_block(blocks[1], layer.l)
        edges = [1.0 if layer.v[0] else 0.0]
        for pred in range(first_in_block, layer.l):
            edges.append(1.0 if layer.v[pred] else 0.0)
        keep_s, keep_st = _UNIT_SITES[layer.u]
        layers.append(LayerGates(edges=edges, s=float(keep_s), st=float(keep_st)))
    return GateSample(layers=layers, blocks=tuple(blocks))


def recover_strategy(gates: GateSample) -> FusionStrategy:
    """Read the fusion strategy back from a binary gate sample."""
    layers = []
    for i, lg in enumerate(gates.layers, start=1):
        first_in_block = _first_in_block(gates.blocks[1], i)
        v = [False] * i
        v[0] = float(lg.edges[0]) == 1.0
        for e, pred in enumerate(range(first_in_block, i), start=1):
            v[pred] = float(lg.edges[e]) == 1.0
        layers.append(StrategyLayer(l=i, v=tuple(v), u=_UNIT_OF_SITES[float(lg.s) == 1.0, float(lg.st) == 1.0]))
    return FusionStrategy(layers=tuple(layers))


class Subnetwork:
    """Hard-gated view of the template for one strategy; weights are shared."""

    def __init__(self, net: TemplateNetwork, strategy: FusionStrategy):
        if strategy.num_layers != net.config.total_layers:
            raise ContractError(
                f"strategy has {strategy.num_layers} layers, template has {net.config.total_layers}"
            )
        self.net = net
        self.strategy = strategy
        self.gates = gates_from_strategy(strategy, (net.config.num_blocks, net.config.layers_per_block))

    def forward(self, batch: Tensor, training: bool = False) -> Tensor:
        return self.net.forward(batch, self.gates, training)

    def active_parameters(self):
        return self.net.parameters([layer.u for layer in self.strategy.layers])

    def active_param_count(self) -> int:
        return sum(p.data.size for p in self.active_parameters())

    def mult_add_proxy(self) -> int:
        """Multiply-adds of the active convolutions and head for one clip.

        Every convolution is stride-1 same-padded, so one costs its kernel
        size times the output pixels (T*H*W at its block's resolution).
        """
        cfg = self.net.config
        _, t, h, w = cfg.clip_shape
        pixels = lambda block: t * (h // 2**block) * (w // 2**block)  # each transition halves H and W
        total = self.net.stem.data.size * pixels(0) + self.net.head.data.size
        for layer, srec in zip(self.net.layer_list(), self.strategy.layers):
            block = (layer.global_index - 1) // cfg.layers_per_block
            # conv kernels only: BN affine vectors are 1-D
            total += pixels(block) * sum(p.data.size for p in layer.branch_parameters(srec.u) if p.data.ndim > 1)
        for block, tr in enumerate(self.net.transitions):
            total += pixels(block) * tr.conv.data.size
        return total
