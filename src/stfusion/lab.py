"""Pipeline orchestration: warmup + variational DropPath training, posterior
strategy sampling, training-free evaluation, ranking against the exhaustive
standalone oracle, and layer-level preference reporting.
"""
from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import data as D
from . import gates as G
from .errors import ConfigurationError, ContractError, TrainingDiverged
from .gates import GateParams, GateSample, ObjectiveConfig, objective
from .model import FusionStrategy, Subnetwork, TemplateNetwork, recover_strategy, unit_name
from .tensor import SGD, Tensor, backward, no_tape, softmax_cross_entropy


@dataclass
class TrainSchedule:
    warmup_epochs: int = 10
    main_epochs: int = 30
    batch_size: int = 16
    lr: float = 0.05
    lr_decay_epochs: tuple = (20,)
    lr_decay_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.warmup_epochs < 0 or self.main_epochs < 0:
            raise ConfigurationError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigurationError(f"lr_decay_factor must lie in (0, 1], got {self.lr_decay_factor}")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr
        for e in self.lr_decay_epochs:
            if epoch >= e:
                lr *= self.lr_decay_factor
        return lr


@dataclass
class StrategyEvaluation:
    strategy: FusionStrategy
    val_accuracy: float
    active_param_count: int
    mult_add_proxy: int


_EVAL_BATCH = 64


def _in_order(dataset: D.ClipDataset):
    """Unshuffled (clips, labels) minibatches for evaluation passes; last partial batch kept."""
    for start in range(0, len(dataset), _EVAL_BATCH):
        yield dataset.clips[start:start + _EVAL_BATCH].astype(np.float64), dataset.labels[start:start + _EVAL_BATCH]


@no_tape()
def _accuracy(forward_fn, dataset: D.ClipDataset) -> float:
    correct = 0
    for clips, labels in _in_order(dataset):
        logits = forward_fn(Tensor(clips))
        correct += int(np.sum(np.argmax(logits.data, axis=1) == labels))
    return correct / len(dataset)


def template_accuracy(net: TemplateNetwork, dataset: D.ClipDataset) -> float:
    """Ungated template accuracy in eval mode."""
    gates = GateSample.all_on(net.config)
    return _accuracy(lambda x: net.forward(x, gates, training=False), dataset)


# A diverging run overflows on its way to the non-finite loss that raises
# TrainingDiverged; that exception is the report, so NumPy stays quiet.
_quiet_divergence = np.errstate(over="ignore", invalid="ignore")


@_quiet_divergence
def train_template(
    net: TemplateNetwork,
    params: GateParams,
    train: D.ClipDataset,
    val: D.ClipDataset,
    schedule: TrainSchedule,
    cfg: ObjectiveConfig,
) -> list:
    """Warmup (all gates on), then joint weight/gate training on the full objective.

    Returns per-epoch history records (phase, epoch, objective breakdown,
    val accuracy) as JSON-ready dicts.
    """
    if len(train) == 0:
        raise ContractError("training dataset is empty")
    history = []
    gate_rng = np.random.default_rng([schedule.seed, 777])
    all_on = GateSample.all_on(net.config)

    opt_w = SGD(net.parameters(), schedule.lr, momentum=0.9)
    warmup_loss = lambda x, labels: (softmax_cross_entropy(net.forward(x, all_on, training=True), labels), None)
    for epoch in range(schedule.warmup_epochs):
        _sgd_epoch(opt_w, train, schedule, epoch, warmup_loss)
        # epoch-level breakdown at the (fixed) initial gate parameters
        nll_epoch = _epoch_nll(net, all_on, train)
        bd = objective(Tensor(np.float64(nll_epoch)), params, net.gated_parameters(), cfg)
        history.append(_record("warmup", epoch, bd.to_json(), template_accuracy(net, val)))

    def relaxed_loss(x, labels):
        sample = G.sample_gates_concrete(params, gate_rng)
        nll = softmax_cross_entropy(net.forward(x, sample, training=True), labels)
        bd = objective(nll, params, net.gated_parameters(), cfg)
        return bd.total_tensor, bd.to_json()

    opt = SGD(net.parameters() + params.trainable_tensors(), schedule.lr, momentum=0.9)
    for main_epoch in range(schedule.main_epochs):
        epoch = schedule.warmup_epochs + main_epoch
        params.tau = G.temperature_schedule(main_epoch, max(schedule.main_epochs - 1, 1))
        bds = _sgd_epoch(opt, train, schedule, epoch, relaxed_loss)
        mean = {key: float(np.mean([b[key] for b in bds])) for key in bds[0]}
        history.append(_record("main", epoch, mean, template_accuracy(net, val), tau=params.tau))
    return history


def _sgd_epoch(opt: SGD, train: D.ClipDataset, schedule: TrainSchedule, epoch: int, loss_of) -> list:
    """One shuffled SGD pass over `train` at the epoch's learning rate.

    `loss_of(x, labels)` returns (scalar loss tensor, record); the records
    come back in batch order. Each batch's graph lives only in this frame, so
    none of it outlives the epoch into the caller's evaluation passes.
    """
    opt.lr = schedule.lr_at(epoch)
    records = []
    for clips, labels in D.batches(train, schedule.batch_size, schedule.seed, epoch):
        loss, record = loss_of(Tensor(clips), labels)
        if not np.isfinite(loss.item()):
            raise TrainingDiverged(epoch)
        backward(loss)
        opt.step()
        records.append(record)
    return records


@no_tape()
def _epoch_nll(net, gates, train) -> float:
    losses = []
    weights = []
    for clips, labels in _in_order(train):
        logits = net.forward(Tensor(clips), gates, training=False)
        losses.append(softmax_cross_entropy(logits, labels).item())
        weights.append(len(labels))
    return float(np.average(losses, weights=weights))


def _record(phase, epoch, breakdown: dict, val_acc, **extra):
    """One history record: an objective breakdown (`ObjectiveBreakdown.to_json` keys) and val accuracy."""
    return {"phase": phase, "epoch": epoch, **breakdown, **extra, "val_accuracy": val_acc}


# ---------------------------------------------------------------------------
# posterior sampling and training-free evaluation
# ---------------------------------------------------------------------------

def sample_strategies(params: GateParams, count: int, rng) -> list:
    """i.i.d. posterior strategy draws (with replacement; duplicates allowed)."""
    return [recover_strategy(G.sample_gates_hard(params, rng)) for _ in range(count)]


@no_tape()
def evaluate_strategy(
    net: TemplateNetwork,
    strategies: list,
    val: D.ClipDataset,
    recalibrate: D.ClipDataset | None = None,
) -> list:
    """Training-free evaluation of every draw on held-out data, in draw order.

    Each distinct strategy is scored once; they share one walk of their
    hard-gate prefix trie per batch (see `_prefix_walk`). With `recalibrate`,
    each trie node first re-estimates its batch-norm running statistics over
    one train-mode pass of that dataset, as each strategy run alone would;
    the template's stored statistics are restored afterwards.
    """
    if len(val) == 0:
        raise ContractError("validation dataset is empty")
    subs = [Subnetwork(net, s) for s in dict.fromkeys(strategies)]
    states = None if recalibrate is None else {}
    walk = lambda clips, training: _prefix_walk(
        net, subs, range(len(subs)), [net.stem_step(Tensor(clips))], 0, training, states, ())
    snapshot = [bn.state() for bn in net.batch_norms()]
    correct = [0] * len(subs)
    try:
        if recalibrate is not None:
            for clips, _ in _in_order(recalibrate):
                for _ in walk(clips, True):
                    pass
        for clips, labels in _in_order(val):
            for member, predicted in walk(clips, False):
                correct[member] += int(np.sum(predicted == labels))
    finally:
        for bn, state in zip(net.batch_norms(), snapshot):
            bn.load_state(state)
    scored = {sub.strategy: StrategyEvaluation(sub.strategy, c / len(val), sub.active_param_count(),
                                               sub.mult_add_proxy()) for sub, c in zip(subs, correct)}
    return [scored[s] for s in strategies]


def _prefix_walk(net: TemplateNetwork, subs: list, members, feats: list, depth: int, training, states, path):
    """Yield (member, predicted labels) for each member whose gates agree on layers before `depth`.

    `feats` holds the current block's features so far, and `path` the gate
    keys of the layers before `depth`. Batch norm uses the batch's statistics
    in train mode and the node's in eval mode, so layer `depth` sees the same
    input for every member: each distinct gate of that layer runs once, and
    its subtree is walked before the next sibling is computed, so only the
    current path is held. A block end runs once per prefix that reaches it.
    """
    per_block = net.config.layers_per_block
    if depth and depth % per_block == 0:
        b = depth // per_block - 1
        if depth == net.config.total_layers:
            with _node_statistics([net.final_bn], path, states):
                logits = net.head_step(net.block_end_step(b, feats, training), training)
            predicted = np.argmax(logits.data, axis=1)
            for member in members:
                yield member, predicted
            return
        with _node_statistics([net.transitions[b].bn], path, states):
            feats = [net.block_end_step(b, feats, training)]
    children = {}
    for member in members:
        lg = subs[member].gates.layers[depth]
        children.setdefault((tuple(lg.edges), lg.s, lg.st), []).append(member)
    layer = net.layer_list()[depth]
    for key, group in children.items():
        node = path + (key,)
        with _node_statistics(layer.batch_norms(), node, states):
            feats.append(net.layer_step(layer, feats, subs[group[0]].gates.layers[depth], training))
        yield from _prefix_walk(net, subs, group, feats, depth + 1, training, states, node)
        feats.pop()


@contextmanager
def _node_statistics(bns: list, node: tuple, states):
    """Run the body with trie node `node`'s running statistics from `states` in `bns`, then store them back.

    A node starts unseeded, so its first train-mode batch seeds it, as in
    `BatchNorm`. Without `states` the template's own statistics are used.
    """
    if states is None:
        yield
        return
    for bn in bns:
        bn.load_state(states.get((bn.prefix, node), dict(bn.state(), initialized=False)))
    yield
    for bn in bns:
        states[bn.prefix, node] = bn.state()


def _rank_key(ev: StrategyEvaluation) -> tuple:
    """Best first: higher accuracy, then cheaper compute, then fewer params."""
    return (-ev.val_accuracy, ev.mult_add_proxy, ev.active_param_count)


def select_best(evals: list) -> StrategyEvaluation:
    """The first evaluation with the smallest `_rank_key`."""
    if not evals:
        raise ContractError("select_best requires a nonempty list")
    return min(evals, key=_rank_key)


# ---------------------------------------------------------------------------
# standalone oracle
# ---------------------------------------------------------------------------

@_quiet_divergence
def train_standalone(
    strategy: FusionStrategy,
    config,
    train: D.ClipDataset,
    val: D.ClipDataset,
    schedule: TrainSchedule,
) -> float:
    """Ground-truth oracle: train a fresh network holding only the strategy's
    branches and return the best validation accuracy seen."""
    if len(train) == 0:
        raise ContractError("training dataset is empty")
    sub = Subnetwork(TemplateNetwork(config, seed=schedule.seed), strategy)
    opt = SGD(sub.active_parameters(), schedule.lr, momentum=0.9)
    loss_of = lambda x, labels: (softmax_cross_entropy(sub.forward(x, training=True), labels), None)
    best = 0.0
    for epoch in range(schedule.warmup_epochs + schedule.main_epochs):
        _sgd_epoch(opt, train, schedule, epoch, loss_of)
        best = max(best, _accuracy(lambda x: sub.forward(x, training=False), val))
    return best


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of the ranks they span."""
    order = np.argsort(x, kind="mergesort")
    ordered = x[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    group = np.cumsum(starts)[np.argsort(order, kind="mergesort")]
    bounds = np.r_[np.flatnonzero(starts), len(x)]  # ranks before each tie group, then n
    return 0.5 * (bounds[group] + bounds[group - 1] + 1)


def rank_correlation(a, b) -> float:
    """Spearman rho: Pearson correlation of average ranks (ties share a rank).

    A constant input carries no rank information; that case is reported as 0.0
    rather than NaN so downstream comparisons stay well-defined.
    """
    if len(a) != len(b):
        raise ContractError(f"rank_correlation needs equal lengths, got {len(a)} and {len(b)}")
    if len(a) < 2:
        raise ContractError("rank_correlation needs at least 2 points")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        return 0.0
    ranks = [_average_ranks(np.asarray(x, dtype=np.float64)) for x in (a, b)]
    return float(np.corrcoef(*ranks)[1, 0])


# ---------------------------------------------------------------------------
# layer preference report
# ---------------------------------------------------------------------------

@dataclass
class LayerPreference:
    layer: int
    p_edge: float
    p_S: float
    p_ST: float
    eq7_S: float
    eq7_ST: float
    freq_S: float
    freq_ST: float
    freq_SST: float
    freq_skip: float
    chosen_unit: str


@dataclass
class PreferenceReport:
    rows: list

    CSV_HEADER = [
        "layer", "p_edge", "p_S", "p_ST", "eq7_S", "eq7_ST",
        "freq_S", "freq_ST", "freq_SST", "freq_skip", "chosen_unit",
    ]

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(self.CSV_HEADER)
            for r in self.rows:
                writer.writerow([
                    r.layer, repr(r.p_edge), repr(r.p_S), repr(r.p_ST),
                    repr(r.eq7_S), repr(r.eq7_ST),
                    repr(r.freq_S), repr(r.freq_ST), repr(r.freq_SST), repr(r.freq_skip),
                    r.chosen_unit,
                ])


def layer_preference_report(params: GateParams, best: FusionStrategy) -> PreferenceReport:
    rows = []
    for i, ((p_edge, p_s, p_st), layer) in enumerate(zip(params.drop_probs(), best.layers), start=1):
        comp = G.unit_composition(p_s, p_st)
        rows.append(LayerPreference(
            layer=i,
            p_edge=p_edge,
            p_S=p_s,
            p_ST=p_st,
            eq7_S=G.marginal_eq7(p_s),
            eq7_ST=G.marginal_eq7(p_st),
            freq_S=comp["S"],
            freq_ST=comp["ST"],
            freq_SST=comp["S+ST"],
            freq_skip=comp["skip"],
            chosen_unit=unit_name(layer.u),
        ))
    return PreferenceReport(rows=rows)


def write_evaluations_csv(evals: list, path):
    """Evaluations sorted best first by `_rank_key`."""
    ordered = sorted(evals, key=_rank_key)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["strategy_json", "val_accuracy", "active_params", "mult_adds"])
        for ev in ordered:
            writer.writerow([
                json.dumps(ev.strategy.to_json(), sort_keys=True),
                repr(ev.val_accuracy),
                ev.active_param_count,
                ev.mult_add_proxy,
            ])
