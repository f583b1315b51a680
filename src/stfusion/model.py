"""Fusion strategies and the densely connected gated template network.

A strategy assigns each layer a triplet (l, v, u): layer index, a boolean
input-selection vector, and a fusion unit (`gates.FusionUnitKind`: spatial
S, spatiotemporal ST, both, or SKIP, which keeps neither branch). The
template network holds every branch of every strategy; strategies are
materialized as hard-gated views sharing the template's weights.

Input-vector convention: v has length l. Slot 0 selects the layer's block
input (the stem for the first block, the preceding transition otherwise);
slot i >= 1 selects global layer i when that layer lies in the same block,
and is ignored (False in recovered strategies) across block boundaries.

The strategy space is what the hard gates can say: every (v, u) per layer,
including an active layer whose inputs are all dropped. Such a layer is not a
skip, because its zero input still passes batch norm's shift into the convs,
so it is scored, and can be trained, like any other strategy.
"""
from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractError, ShapeError, SizeGuardError
from .gates import FusionUnitKind, GateSample, LayerGates, edge_counts
from .tensor import BatchNorm, Parameter, Tensor

_UNIT_FROM_NAME = {u.label: u for u in FusionUnitKind}
_UNIT_OF_SITES = {u.sites: u for u in FusionUnitKind}

# Every conv but the Transitions' 1x1 is 3x3 in space, or 3 taps in time, same-padded by 1.
_KERNEL, _PADDING = 3, 1


@dataclass(frozen=True)
class StrategyLayer:
    l: int                       # 1-based global layer index
    v: tuple                     # booleans, length l
    u: FusionUnitKind


@dataclass(frozen=True)
class FusionStrategy:
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))  # hashable whatever sequence arrives

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def validate(self):
        for i, layer in enumerate(self.layers, start=1):
            if layer.l != i:
                raise ContractError(f"strategy layer {i} carries index {layer.l}")
            if len(layer.v) != i:
                raise ContractError(f"layer {i} input vector has length {len(layer.v)}, expected {i}")
        return self

    def to_json(self) -> dict:
        return {
            "L": self.num_layers,
            "layers": [
                {"l": layer.l, "v": [1 if b else 0 for b in layer.v], "u": layer.u.label}
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


def enumerate_all_strategies(num_layers: int) -> list:
    """All 3^L assignments of the units that run a branch, with every edge enabled, lexicographic order."""
    count = 3 ** num_layers
    if count > 100000:
        raise SizeGuardError(f"3^{num_layers} = {count} strategies exceeds the 100000 guard")
    return [
        FusionStrategy(layers=tuple(StrategyLayer(l=i, v=(True,) * i, u=u) for i, u in enumerate(assignment, start=1)))
        for assignment in itertools.product(list(FusionUnitKind)[:3], repeat=num_layers)
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

    def __post_init__(self):
        for name in ("num_blocks", "layers_per_block", "growth_channels", "stem_channels", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if len(self.clip_shape) != 4 or any(x < 1 for x in self.clip_shape):
            raise ConfigurationError(f"clip_shape must be four positive extents (C,T,H,W), got {self.clip_shape}")
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

    def __init__(self, global_index, in_channels, growth, rng):
        k = _KERNEL
        self.global_index = global_index
        self.in_channels = in_channels
        prefix = f"layer{global_index}"
        self.bn_s = BatchNorm(in_channels, f"{prefix}/S/bn")
        self.conv_s = Parameter(
            _uniform(rng, (growth, in_channels, k, k), in_channels * k * k), f"{prefix}/S/conv2d"
        )
        self.bn_st1 = BatchNorm(in_channels, f"{prefix}/ST/bn1")
        self.conv_st2d = Parameter(
            _uniform(rng, (growth, in_channels, k, k), in_channels * k * k), f"{prefix}/ST/conv2d"
        )
        self.bn_st2 = BatchNorm(growth, f"{prefix}/ST/bn2")
        self.conv_st1d = Parameter(
            _uniform(rng, (growth, growth, k), growth * k), f"{prefix}/ST/conv1d"
        )

    def branch_s(self, x, training):
        h = T.relu(self.bn_s(x, training))
        return T.conv2d_spatial(h, self.conv_s, _PADDING)

    def branch_st(self, x, training):
        h = T.relu(self.bn_st1(x, training))
        h = T.conv2d_spatial(h, self.conv_st2d, _PADDING)
        h = T.relu(self.bn_st2(h, training))
        return T.conv1d_temporal(h, self.conv_st1d, _PADDING)

    def branch_parameters(self, unit):
        """Parameters of the branches a fusion unit keeps (none when skipped)."""
        keep_s, keep_st = unit.sites
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
        c = config.clip_shape[0]
        self.stem = Parameter(
            _uniform(rng, (config.stem_channels, c, _KERNEL, _KERNEL), c * _KERNEL * _KERNEL), "stem/conv2d"
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
                block.append(DenseLayer(global_index, in_ch, config.growth_channels, rng))
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

    def forward(self, batch: Tensor, gates: GateSample, training: bool) -> Tensor:
        [(_, logits)] = self.walk(batch, [gates], training)
        return logits

    def walk(self, batch: Tensor, samples: list, training: bool, states=None):
        """Yield (index, logits) for each gate sample in `samples`, sharing the steps their prefixes share.

        The samples form a trie over their per-layer gates. Batch norm uses the
        batch's statistics in train mode and the fixed ones in eval mode, so
        a layer's input depends only on the gates before it: each distinct gate
        of a layer runs once under its prefix, and its subtree is walked before
        the next sibling is computed, so only the current path is held. A block
        end runs once per prefix that reaches it. With `states` (a dict, filled
        across calls), each trie node keeps its own batch-norm running
        statistics in it, and the template's own are left as they were; see
        `_node_statistics`.
        """
        clip_shape = tuple(self.config.clip_shape)
        if batch.shape[1:] != clip_shape:
            raise ShapeError(
                f"batch clip shape {tuple(batch.shape[1:])} does not match config clip shape {clip_shape}"
            )
        for gates in samples:
            if len(gates.layers) != self.config.total_layers:
                raise ContractError(
                    f"gate sample covers {len(gates.layers)} layers, network has {self.config.total_layers}"
                )
        per_block = self.config.layers_per_block
        layers = self.layer_list()

        def subtree(members, feats, depth, path):
            # `feats` holds the current block's features so far, `path` the gate keys before `depth`
            if depth and depth % per_block == 0:
                b = depth // per_block - 1
                h = T.concat_channels(feats)
                if depth == len(layers):
                    with _node_statistics([self.final_bn], path, states):
                        logits = T.pool_and_classify(T.relu(self.final_bn(h, training)), self.head)
                    for member in members:
                        yield member, logits
                    return
                with _node_statistics([self.transitions[b].bn], path, states):
                    feats = [self.transitions[b](h, training)]
            children = {}
            for member in members:
                lg = samples[member].layers[depth]
                children.setdefault((tuple(lg.edges), lg.s, lg.st), []).append(member)
            layer = layers[depth]
            for key, group in children.items():
                node = path + (key,)
                with _node_statistics(layer.batch_norms(), node, states):
                    feats.append(self.layer_step(layer, feats, samples[group[0]].layers[depth], training))
                yield from subtree(group, feats, depth + 1, node)
                feats.pop()

        yield from subtree(range(len(samples)), [T.conv2d_spatial(batch, self.stem, _PADDING)], 0, ())

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


@contextmanager
def _node_statistics(bns: list, node: tuple, states):
    """Run the body with trie node `node`'s running statistics from `states` in `bns`, then store them back.

    A node starts unseeded (None), so its first train-mode batch seeds it, as
    in `BatchNorm`. The template's own statistics are back in `bns`
    afterwards; without `states` they are the ones used.
    """
    if states is None:
        yield
        return
    own = [bn.running for bn in bns]
    for bn in bns:
        bn.running = states.get((bn.prefix, node))
    try:
        yield
        for bn in bns:
            states[bn.prefix, node] = bn.running
    finally:
        for bn, running in zip(bns, own):
            bn.running = running


# ---------------------------------------------------------------------------
# strategy <-> gates
# ---------------------------------------------------------------------------

def _edge_slots(l: int, n_edges: int) -> tuple:
    """The v slots of layer l's `n_edges` edges: its block input, then its in-block predecessors."""
    return (0, *range(l - n_edges + 1, l))


def gates_from_strategy(strategy: FusionStrategy, blocks) -> GateSample:
    """Hard gates implied by a strategy under the v-slot convention."""
    return GateSample([
        LayerGates(edges=[float(layer.v[slot]) for slot in _edge_slots(layer.l, n)],
                   s=float(layer.u.sites[0]), st=float(layer.u.sites[1]))
        for layer, n in zip(strategy.layers, edge_counts(blocks), strict=True)
    ])


def recover_strategy(gates: GateSample) -> FusionStrategy:
    """Read the fusion strategy back from a binary gate sample."""
    layers = []
    for i, lg in enumerate(gates.layers, start=1):
        v = [False] * i
        for slot, edge in zip(_edge_slots(i, len(lg.edges)), lg.edges):
            v[slot] = float(edge) == 1.0
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
