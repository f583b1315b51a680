import numpy as np
import pytest

from stfusion import cli
from stfusion import lab as L
from stfusion import tensor as T
from stfusion.errors import ContractError
from stfusion.model import FusionStrategy, FusionUnitKind, StrategyLayer, Subnetwork


def pytest_sessionstart(session):
    """Pin the heap as every CLI command does: the acceptance criteria train through `lab` in this process."""
    cli._pin_heap()


def linear_probe(out, rng):
    """Random fixed linear functional of an op output, as a scalar loss.

    Keeps finite-difference checks well-conditioned (no degenerate losses).
    """
    c = T.Tensor(rng.normal(size=out.shape))
    return T.sum_all(T.mul(out, c))


def fd_gradient(make_loss, t, h=1e-5):
    """Central finite differences of a scalar loss w.r.t. one tensor."""
    fd = np.zeros_like(t.data)
    it = np.nditer(t.data, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = t.data[i]
        t.data[i] = old + h
        lp = make_loss().item()
        t.data[i] = old - h
        lm = make_loss().item()
        t.data[i] = old
        fd[i] = (lp - lm) / (2 * h)
    return fd


def max_rel_error(make_loss, tensors, h=1e-5):
    """Norm-relative error between analytic and finite-difference gradients."""
    loss = make_loss()
    T.backward(loss)
    worst = 0.0
    for t in tensors:
        analytic = t.grad.copy()
        fd = fd_gradient(make_loss, t, h)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, err)
    return worst


def clip_datasets_equal(a, b) -> bool:
    """Same clips, labels and manifest."""
    return np.array_equal(a.clips, b.clips) and np.array_equal(a.labels, b.labels) and a.manifest == b.manifest


def monte_carlo_unit_marginal(params, layer: int, n: int, rng) -> dict:
    """Empirical frequencies of the realized unit at one layer over n hard draws.

    Reference for the closed-form `gates.unit_composition`: draws all S noise,
    then all ST noise.
    """
    if n < 1:
        raise ContractError(f"need n >= 1 draws, got {n}")
    _, ps, pst = params.drop_probs()[layer - 1]
    keep_s = rng.random(n) > ps
    keep_st = rng.random(n) > pst
    return {
        "S": float(np.mean(keep_s & ~keep_st)),
        "ST": float(np.mean(~keep_s & keep_st)),
        "S+ST": float(np.mean(keep_s & keep_st)),
        "skip": float(np.mean(~keep_s & ~keep_st)),
    }


def strategy_from_literature(name: str, num_layers: int) -> FusionStrategy:
    """Reference strategies with every edge kept: S below ST ("top_heavy"), ST below S
    ("bottom_heavy"), or S+ST in every layer ("mixed_everywhere")."""
    half = num_layers // 2
    units = {
        "top_heavy": [FusionUnitKind.S] * half + [FusionUnitKind.ST] * (num_layers - half),
        "mixed_everywhere": [FusionUnitKind.S_PLUS_ST] * num_layers,
    }
    units["bottom_heavy"] = units["top_heavy"][::-1]
    return FusionStrategy(tuple(StrategyLayer(l=i, v=(True,) * i, u=u) for i, u in enumerate(units[name], start=1)))


def evaluate_one(net, strategy, val, recalibrate=None):
    """Reference for `lab.evaluate_strategy`: one strategy, run whole, on its own.

    If `recalibrate` is given, every batch-norm's running statistics are
    re-estimated over one train-mode pass of that dataset through this
    strategy alone; the template's stored statistics are restored afterwards.
    """
    sub = Subnetwork(net, strategy)
    snapshot = [bn.state() for bn in net.batch_norms()]
    try:
        if recalibrate is not None:
            for bn in net.batch_norms():
                bn.running = None
            for clips, _ in L._in_order(recalibrate):
                sub.forward(T.Tensor(clips), training=True)
        correct = 0
        for clips, labels in L._in_order(val):
            correct += int(np.sum(np.argmax(sub.forward(T.Tensor(clips)).data, axis=1) == labels))
    finally:
        for bn, state in zip(net.batch_norms(), snapshot):
            bn.load_state(state)
    return L.StrategyEvaluation(strategy, correct / len(val), sub.active_param_count(), sub.mult_add_proxy())


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
