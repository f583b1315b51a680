"""Minimal dense-tensor engine with reverse-mode autodiff.

Everything is float64 on CPU. There is no implicit broadcasting: `add` and
`mul` require identical shapes, and scalar multiplication goes through
`scale` (python float) or `scale_t` (0-d tensor, differentiable in both
arguments). Gradients are recomputed from scratch on every `backward` call;
grads of tensors outside the current graph are left untouched.

Passes that never call `backward` run under `no_tape()`, a context manager
that also works as a decorator: there ops record no graph, so the arrays a
backward would need are freed as soon as each op returns.
"""
from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ShapeError, UninitializedStateError


class Tensor:
    """Dense float64 array participating in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a unique identifier path."""

    __slots__ = ("identifier",)

    def __init__(self, data, identifier: str):
        super().__init__(data, requires_grad=True)
        self.identifier = identifier

    def __repr__(self):
        return f"Parameter({self.identifier!r}, shape={self.shape})"


_taping = True


@contextmanager
def no_tape():
    """Run the body without recording a graph; nests, and restores taping on any exit."""
    global _taping
    previous, _taping = _taping, False
    try:
        yield
    finally:
        _taping = previous


def _result(data, parents, backward_fn):
    out = Tensor(data)
    if _taping and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def backward(loss: Tensor):
    """Populate grads of every tensor reachable from a scalar loss.

    Grads inside the graph are overwritten (zeroed, then accumulated), so
    repeated calls do not accumulate across calls.
    """
    if loss.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    for node in topo:
        if node.requires_grad:
            node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add requires identical shapes, got {a.shape} and {b.shape}")

    def bwd(go):
        if a.requires_grad:
            a.grad += go
        if b.requires_grad:
            b.grad += go

    return _result(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub requires identical shapes, got {a.shape} and {b.shape}")

    def bwd(go):
        if a.requires_grad:
            a.grad += go
        if b.requires_grad:
            b.grad -= go

    return _result(a.data - b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(go):
        if a.requires_grad:
            a.grad -= go

    return _result(-a.data, (a,), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul requires identical shapes, got {a.shape} and {b.shape}")

    def bwd(go):
        if a.requires_grad:
            a.grad += go * b.data
        if b.requires_grad:
            b.grad += go * a.data

    return _result(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(go):
        if a.requires_grad:
            a.grad += c * go

    return _result(c * a.data, (a,), bwd)


def add_const(a: Tensor, c: float) -> Tensor:
    def bwd(go):
        if a.requires_grad:
            a.grad += go

    return _result(a.data + float(c), (a,), bwd)


def scale_t(a: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a 0-d tensor; differentiable in both."""
    if s.shape != ():
        raise ShapeError(f"scale_t expects a 0-d scalar tensor, got shape {s.shape}")

    def bwd(go):
        if a.requires_grad:
            a.grad += s.data * go
        if s.requires_grad:
            s.grad += np.sum(go * a.data)

    return _result(s.data * a.data, (a, s), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(go):
        if a.requires_grad:
            a.grad += go * mask

    return _result(np.where(mask, a.data, 0.0), (a,), bwd)


def log(a: Tensor) -> Tensor:
    def bwd(go):
        if a.requires_grad:
            a.grad += go / a.data

    return _result(np.log(a.data), (a,), bwd)


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)) of an array, as `sigmoid` computes it; piecewise, so exp cannot overflow."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def sigmoid(a: Tensor) -> Tensor:
    y = logistic(a.data)

    def bwd(go):
        if a.requires_grad:
            a.grad += go * y * (1.0 - y)

    return _result(y, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(go):
        if a.requires_grad:
            a.grad += go  # go is 0-d, broadcasts

    return _result(np.sum(a.data), (a,), bwd)


def sumsq(a: Tensor) -> Tensor:
    """Sum of squared entries as a 0-d tensor."""

    def bwd(go):
        if a.requires_grad:
            a.grad += 2.0 * go * a.data

    return _result(np.sum(a.data * a.data), (a,), bwd)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def concat_channels(tensors) -> Tensor:
    """Concatenate rank-5 tensors along the channel axis."""
    tensors = list(tensors)
    base = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != 5 or t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ShapeError(
                f"concat_channels requires matching non-channel dims, got {base} and {t.shape}"
            )
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def bwd(go):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.grad += go[:, lo:hi]

    return _result(np.concatenate([t.data for t in tensors], axis=1), tensors, bwd)


# ---------------------------------------------------------------------------
# convolutions (stride 1, same padding)
# ---------------------------------------------------------------------------

def _window_matrices(a, window: tuple, axes: tuple, padding: int):
    """Yield each clip's same-padded window matrix of a (N, C, T, H, W) array.

    Row (c, tap) of clip n's (C*taps, T*H*W) matrix holds channel c shifted by
    that tap along `axes`; column (t, h, w) is an output position. One buffer
    is refilled for every clip, so it stays in cache for the GEMMs that read
    it, and a consumer must be done with a matrix before taking the next.
    """
    shape, inner = list(a.shape), [slice(None)] * 5
    for axis in axes:
        shape[axis] += 2 * padding
        inner[axis] = slice(padding, padding + a.shape[axis])
    padded = np.zeros(shape)
    padded[tuple(inner)] = a
    win = sliding_window_view(padded, window, axis=axes)  # (N, C, T, H, W, *window)
    win = win.transpose(0, 1, *range(5, 5 + len(window)), 2, 3, 4)
    buf = np.empty(win.shape[1:])
    matrix = buf.reshape(a.shape[1] * math.prod(window), -1)
    for clip in win:
        buf[...] = clip
        yield matrix


def _same_correlation(name: str, x: Tensor, kernel: Tensor, padding: int, axes: tuple) -> Tensor:
    """Stride-1, same-padded cross-correlation of a rank-5 clip tensor.

    x: (N, C, T, H, W); kernel: (O, C, *window), one odd window extent per
    axis in `axes` (positions in x). Lowered to GEMMs, clip by clip, over
    window matrices (im2col): the forward multiplies the kernel by the
    input's windows. The backward windows one operand: the output gradient
    when x needs a gradient (it gives both gradients, through the flipped
    kernel and flipped taps), else the input.
    """
    window = kernel.shape[2:]
    if len(x.shape) != 5 or len(kernel.shape) != 2 + len(axes):
        raise ShapeError(
            f"{name} expects rank-5 input and rank-{2 + len(axes)} kernel, got {x.shape}, {kernel.shape}"
        )
    c, ck = x.shape[1], kernel.shape[1]
    if c != ck:
        raise ShapeError(f"channel mismatch: input {x.shape} has {c} channels, kernel {kernel.shape} expects {ck}")
    if any(k % 2 == 0 for k in window):
        raise ContractError(f"{name} kernel extents must be odd, got {window}")
    if any(padding != (k - 1) // 2 for k in window):
        raise ContractError(f"padding must be (k-1)/2 for same-shape output, got {padding} for {window}")

    n, o, taps = x.shape[0], kernel.shape[0], math.prod(window)
    out = np.empty((n, o, math.prod(x.shape[2:])))
    for i, win in enumerate(_window_matrices(x.data, window, axes, padding)):
        np.matmul(kernel.data.reshape(o, c * taps), win, out=out[i])
    flip_taps = (slice(None, None, -1),) * len(axes)

    def bwd(go):
        if x.requires_grad:
            flipped = kernel.data[(slice(None), slice(None)) + flip_taps].swapaxes(0, 1).reshape(c, o * taps)
            xs = x.data.reshape(n, c, -1)
            gx, gk = np.empty(xs.shape), np.zeros((o * taps, c))
            for i, g in enumerate(_window_matrices(go, window, axes, padding)):  # (O*taps, T*H*W)
                np.matmul(flipped, g, out=gx[i])
                if kernel.requires_grad:
                    gk += g @ xs[i].T
            x.grad += gx.reshape(x.shape)
            if kernel.requires_grad:
                gk = gk.reshape(o, *window, c)[(slice(None),) + flip_taps]
                kernel.grad += np.moveaxis(gk, -1, 1)
        elif kernel.requires_grad:
            gs, gk = go.reshape(n, o, -1), np.zeros((o, c * taps))
            for i, win in enumerate(_window_matrices(x.data, window, axes, padding)):
                gk += gs[i] @ win.T
            kernel.grad += gk.reshape(kernel.shape)

    return _result(out.reshape((n, o) + x.shape[2:]), (x, kernel), bwd)


def conv2d_spatial(x: Tensor, kernel: Tensor, padding: int) -> Tensor:
    """Per-frame 2D cross-correlation; x: (N, C, T, H, W), kernel: (O, C, kh, kw)."""
    return _same_correlation("conv2d_spatial", x, kernel, padding, (3, 4))


def conv1d_temporal(x: Tensor, kernel: Tensor, padding: int) -> Tensor:
    """Per-pixel 1D temporal cross-correlation; x: (N, C, T, H, W), kernel: (O, C, kt)."""
    return _same_correlation("conv1d_temporal", x, kernel, padding, (2,))


def avg_pool_spatial(x: Tensor) -> Tensor:
    """2x2 spatial average pooling with stride 2."""
    n, c, t, h, w = x.shape
    if h % 2 != 0 or w % 2 != 0:
        raise ShapeError(f"avg_pool_spatial requires even spatial extents, got {x.shape}")
    out = x.data.reshape(n, c, t, h // 2, 2, w // 2, 2).mean(axis=(4, 6))

    def bwd(go):
        if x.requires_grad:
            g = np.repeat(np.repeat(go, 2, axis=3), 2, axis=4) * 0.25
            x.grad += g

    return _result(out, (x,), bwd)


def pool_and_classify(features: Tensor, head_weights: Tensor) -> Tensor:
    """Global average pool over time and space, then a linear head.

    features: (N, C, T, H, W), head_weights: (num_classes, C) -> (N, num_classes).
    """
    if len(features.shape) != 5 or len(head_weights.shape) != 2:
        raise ShapeError(
            f"pool_and_classify expects rank-5 features and rank-2 head, got {features.shape}, {head_weights.shape}"
        )
    n, c, t, h, w = features.shape
    k, cw = head_weights.shape
    if cw != c:
        raise ShapeError(f"head width {cw} does not match feature channel count {c}")
    pooled = features.data.mean(axis=(2, 3, 4))  # (N, C)
    out = pooled @ head_weights.data.T

    def bwd(go):
        if head_weights.requires_grad:
            head_weights.grad += go.T @ pooled
        if features.requires_grad:
            dp = go @ head_weights.data  # (N, C)
            features.grad += dp[:, :, None, None, None] / (t * h * w)

    return _result(out, (features, head_weights), bwd)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class."""
    if len(logits.shape) != 2:
        raise ShapeError(f"softmax_cross_entropy expects rank-2 logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, num_classes = logits.shape
    for row, lab in enumerate(labels):
        if lab < 0 or lab >= num_classes:
            raise IndexError(f"label {lab} at row {row} outside [0, {num_classes})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    lse = np.log(ez.sum(axis=1))
    losses = lse - z[np.arange(n), labels]
    loss = np.mean(losses)

    def bwd(go):
        if logits.requires_grad:
            g = probs.copy()
            g[np.arange(n), labels] -= 1.0
            logits.grad += go * g / n

    return _result(loss, (logits,), bwd)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BatchNorm:
    """Per-channel batch normalization over batch, time, and space.

    Single-process only. `running` is None until the first train-mode batch
    seeds it with that batch's (mean, var). Each later one replaces the pair,
    never changing it in place, with its momentum-0.9 update.
    """

    EPS = 1e-5
    MOMENTUM = 0.9

    def __init__(self, channels: int, prefix: str):
        self.channels = channels
        self.prefix = prefix
        self.gamma = Parameter(np.ones(channels), f"{prefix}/gamma")
        self.beta = Parameter(np.zeros(channels), f"{prefix}/beta")
        self.running = None

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        """Normalize with batch statistics (training) or running statistics (eval)."""
        if len(x.shape) != 5 or x.shape[1] != self.channels:
            raise ShapeError(f"batch_norm expects rank-5 input with {self.channels} channels, got {x.shape}")
        n, c, t, h, w = x.shape
        m = n * t * h * w
        axes = (0, 2, 3, 4)
        per_channel = (None, slice(None), None, None, None)
        gamma, beta = self.gamma, self.beta
        if training:
            if m < 2:
                raise ContractError(f"train-mode batch_norm needs >= 2 values per channel, got {m}")
            mu = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            if self.running is None:
                self.running = (mu, var)
            else:
                old_mu, old_var = self.running
                self.running = (self.MOMENTUM * old_mu + (1 - self.MOMENTUM) * mu,
                                self.MOMENTUM * old_var + (1 - self.MOMENTUM) * var)
        elif self.running is None:
            raise UninitializedStateError(
                f"batch_norm {self.prefix} used in eval mode before any train-mode call"
            )
        else:
            mu, var = self.running
        ivar = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x.data - mu[per_channel]) * ivar[per_channel]
        out = gamma.data[per_channel] * xhat + beta.data[per_channel]

        def bwd(go):
            if beta.requires_grad:
                beta.grad += go.sum(axis=axes)
            if gamma.requires_grad:
                gamma.grad += (go * xhat).sum(axis=axes)
            if not x.requires_grad:
                return
            if not training:  # the statistics are constants
                x.grad += go * (gamma.data * ivar)[per_channel]
                return
            dxhat = go * gamma.data[per_channel]
            s1 = dxhat.sum(axis=axes)
            s2 = (dxhat * xhat).sum(axis=axes)
            x.grad += (ivar[per_channel] / m) * (m * dxhat - s1[per_channel] - xhat * s2[per_channel])

        return _result(out, (x, gamma, beta), bwd)

    def state(self):
        """`running` under its weights-file keys; unseeded, it reads as zero mean and unit variance."""
        mu, var = self.running or (np.zeros(self.channels), np.ones(self.channels))
        return {"running_mean": mu.copy(), "running_var": var.copy(), "initialized": self.running is not None}

    def load_state(self, state):
        stats = tuple(np.array(state[key], dtype=np.float64) for key in ("running_mean", "running_var"))
        self.running = stats if state["initialized"] else None


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class SGD:
    """SGD with momentum.

    Update: v <- momentum*v + grad; w <- w - lr*v.
    """

    def __init__(self, params, lr: float, momentum: float = 0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = {}

    def step(self):
        for p in self.params:
            if p.grad is None:
                name = getattr(p, "identifier", "<tensor>")
                raise UninitializedStateError(f"sgd_step before backward: parameter {name} has no gradient")
            v = self._velocity.get(id(p))
            v = p.grad.copy() if v is None else self.momentum * v + p.grad
            self._velocity[id(p)] = v
            p.data -= self.lr * v
