"""Variational gate machinery: drop-probability parameters, Bernoulli and
binary-concrete sampling, the training objective, and unit marginals.

Conventions: p is the DROP probability of a site; a gate value of 1 means the
site is KEPT. Hard samples use the inverse-CDF rule keep = (u > p) with the
same per-site noise-draw order as the relaxed sampler, so annealing the
temperature on a fixed noise stream converges to the hard sample.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractError, DomainError
from .tensor import Tensor


def _logit(p: float) -> float:
    p = min(max(p, 1e-7), 1 - 1e-7)
    return math.log(p / (1 - p))


def edge_counts(blocks) -> list:
    """Incoming edges of each layer under (num_blocks, layers_per_block): block input + in-block predecessors."""
    num_blocks, per_block = blocks
    return list(range(1, per_block + 1)) * num_blocks


@dataclass
class LayerGateLogits:
    """Unconstrained drop-probability logits for one layer's gate sites."""
    edge: Tensor   # shared across the layer's incoming edges
    s: Tensor      # spatial branch
    st: Tensor     # spatiotemporal branch


class GateParams:
    """Per-layer variational drop probabilities stored as logits.

    Edge drop probabilities are shared across a layer's incoming edges;
    each edge instance still draws its own noise.
    """

    def __init__(self, blocks, init_drop: float = 0.1, tau: float = 1.0):
        self.blocks = tuple(blocks)  # (num_blocks, layers_per_block)
        self.edge_counts = edge_counts(self.blocks)
        self.tau = float(tau)
        z = _logit(init_drop)
        self.layers = [
            LayerGateLogits(
                edge=Tensor(np.float64(z), requires_grad=True),
                s=Tensor(np.float64(z), requires_grad=True),
                st=Tensor(np.float64(z), requires_grad=True),
            )
            for _ in self.edge_counts
        ]

    @classmethod
    def for_config(cls, config, init_drop: float = 0.1, tau: float = 1.0) -> "GateParams":
        """Build gate parameters matching a TemplateConfig's gate layout."""
        return cls((config.num_blocks, config.layers_per_block), init_drop, tau)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def drop_probs(self):
        """Current (p_edge, p_S, p_ST) per layer as floats."""
        sig = lambda z: 1.0 / (1.0 + math.exp(-float(z.data)))
        return [(sig(lg.edge), sig(lg.s), sig(lg.st)) for lg in self.layers]

    def trainable_tensors(self):
        out = []
        for lg in self.layers:
            out.extend([lg.edge, lg.s, lg.st])
        return out

    def to_json(self) -> dict:
        return {
            "layers": [
                {"p_edge": pe, "p_S": ps, "p_ST": pst}
                for pe, ps, pst in self.drop_probs()
            ],
            "tau": self.tau,
            "edge_counts": self.edge_counts,
            "blocks": list(self.blocks),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GateParams":
        params = cls(obj["blocks"], tau=obj["tau"])
        if obj["edge_counts"] != params.edge_counts:
            raise ContractError(f"gates JSON edge_counts {obj['edge_counts']} do not follow from its blocks "
                                f"{list(params.blocks)}, which give {params.edge_counts}")
        records = obj["layers"]
        if len(records) != params.num_layers:
            raise ContractError(f"gates JSON lists {len(records)} layers but edge_counts has {params.num_layers}")
        for i, (lg, rec) in enumerate(zip(params.layers, records), start=1):
            for key, logit in (("p_edge", lg.edge), ("p_S", lg.s), ("p_ST", lg.st)):
                if not 0.0 <= rec[key] <= 1.0:  # NaN fails too
                    raise ContractError(f"gates JSON layer {i} has {key} {rec[key]}, outside [0, 1]")
                logit.data = np.float64(_logit(rec[key]))
        return params

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "GateParams":
        with open(path) as f:
            return cls.from_json(json.load(f))


@dataclass
class LayerGates:
    """Realized gate values for one layer: floats (hard) or 0-d tensors (relaxed)."""
    edges: list
    s: object
    st: object


@dataclass
class GateSample:
    layers: list
    blocks: tuple = (1, 1)

    @classmethod
    def all_on(cls, config) -> "GateSample":
        blocks = (config.num_blocks, config.layers_per_block)
        return cls(layers=[LayerGates(edges=[1.0] * n, s=1.0, st=1.0) for n in edge_counts(blocks)], blocks=blocks)


def sample_gates_hard(params: GateParams, rng: np.random.Generator) -> GateSample:
    """Draw hard Bernoulli gates; each site kept with probability 1-p."""
    layers = []
    for (pe, ps, pst), n_edges in zip(params.drop_probs(), params.edge_counts):
        edges = [1.0 if rng.random() > pe else 0.0 for _ in range(n_edges)]
        s = 1.0 if rng.random() > ps else 0.0
        st = 1.0 if rng.random() > pst else 0.0
        layers.append(LayerGates(edges=edges, s=s, st=st))
    return GateSample(layers=layers, blocks=params.blocks)


def _concrete_site(logit_p: Tensor, u: float, tau: float) -> Tensor:
    # keep-logit is -logit_p; add logistic noise, squash at temperature tau
    g = math.log(u) - math.log1p(-u)
    return T.sigmoid(T.scale(T.add_const(T.neg(logit_p), g), 1.0 / tau))


def sample_gates_concrete(params: GateParams, rng: np.random.Generator) -> GateSample:
    """Draw relaxed binary-concrete gates, differentiable in the drop logits."""
    if params.tau <= 0:
        raise ContractError(f"concrete sampling requires tau > 0, got {params.tau}")
    layers = []
    for lg, n_edges in zip(params.layers, params.edge_counts):
        edges = [_concrete_site(lg.edge, rng.random(), params.tau) for _ in range(n_edges)]
        s = _concrete_site(lg.s, rng.random(), params.tau)
        st = _concrete_site(lg.st, rng.random(), params.tau)
        layers.append(LayerGates(edges=edges, s=s, st=st))
    return GateSample(layers=layers, blocks=params.blocks)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

@dataclass
class ObjectiveConfig:
    k: float       # length-scale prior, shared across all sites
    n_train: int   # number of training samples

    def __post_init__(self):
        if self.k <= 0:
            raise ConfigurationError(f"length-scale prior k must be positive, got {self.k}")
        if self.n_train < 1:
            raise ConfigurationError(f"n_train must be >= 1, got {self.n_train}")


@dataclass
class ObjectiveBreakdown:
    nll: float
    entropy_term: float
    weight_term: float
    total: float
    total_tensor: Tensor = field(repr=False, compare=False, default=None)

    def to_json(self) -> dict:
        return {
            "nll": self.nll,
            "entropy_term": self.entropy_term,
            "weight_term": self.weight_term,
            "total": self.total,
        }


def objective(nll: Tensor, params: GateParams, weights, cfg: ObjectiveConfig) -> ObjectiveBreakdown:
    """Total training objective: nll + (1/N)*sum p log p + sum k^2(1-p)/(2N)*||w||^2.

    `weights` are (layer index, "S" | "ST", kernel) triples, as
    `TemplateNetwork.gated_parameters` lists them: each kernel's weight term
    uses the drop probability of the gate site it names. The terms are summed
    in the order given. The returned breakdown carries the differentiable total.
    """
    n = cfg.n_train
    # entropy-like term: every site instance contributes p log p
    ent = None
    for lg, n_edges in zip(params.layers, params.edge_counts):
        for logit, count in ((lg.edge, n_edges), (lg.s, 1), (lg.st, 1)):
            p = T.sigmoid(logit)
            site = T.mul(p, T.log(p))
            if count != 1:
                site = T.scale(site, float(count))
            ent = site if ent is None else T.add(ent, site)
    entropy_term = T.scale(ent, 1.0 / n)

    # weight term: k^2 (1-p) / (2N) * ||w||^2 per governed kernel
    wt = None
    coef = cfg.k * cfg.k / (2.0 * n)
    for layer_idx, site, w in weights:
        lg = params.layers[layer_idx - 1]
        logit = lg.s if site == "S" else lg.st
        keep = T.add_const(T.neg(T.sigmoid(logit)), 1.0)  # 1 - p
        term = T.scale(T.mul(keep, T.sumsq(w)), coef)
        wt = term if wt is None else T.add(wt, term)
    if wt is None:
        wt = Tensor(np.float64(0.0))
    total = T.add(T.add(nll, entropy_term), wt)
    nll_f = nll.item()
    ent_f = entropy_term.item()
    wt_f = wt.item()
    return ObjectiveBreakdown(
        nll=nll_f,
        entropy_term=ent_f,
        weight_term=wt_f,
        total=(nll_f + ent_f) + wt_f,
        total_tensor=total,
    )


# ---------------------------------------------------------------------------
# marginals and schedules
# ---------------------------------------------------------------------------

def marginal_eq7(p: float) -> float:
    """Layer-level marginal keep probability 1 - sqrt(p)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"drop probability must lie in [0, 1], got {p}")
    return 1.0 - math.sqrt(p)


def unit_composition(p_s: float, p_st: float) -> dict:
    """Closed-form probabilities of the realized unit under independent gates."""
    return {
        "S": (1 - p_s) * p_st,
        "ST": p_s * (1 - p_st),
        "S+ST": (1 - p_s) * (1 - p_st),
        "skip": p_s * p_st,
    }


def temperature_schedule(step: int, total_steps: int) -> float:
    """Linear anneal of the concrete temperature from 1.0 down to 0.1."""
    if step < 0 or step > total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return 1.0
    return 1.0 + (0.1 - 1.0) * (step / total_steps)
