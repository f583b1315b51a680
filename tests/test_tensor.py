import numpy as np
import pytest

from stfusion import tensor as T
from stfusion.errors import ContractError, ShapeError, UninitializedStateError
from conftest import fd_gradient, linear_probe, max_rel_error


def conv2d_loop(x, k, padding):
    """Independent triple-nested-loop cross-correlation reference."""
    n, c, t, h, w = x.shape
    o, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, o, t, h, w))
    for ni in range(n):
        for oi in range(o):
            for ti in range(t):
                for hi in range(h):
                    for wi in range(w):
                        acc = 0.0
                        for ci in range(c):
                            for i in range(kh):
                                for j in range(kw):
                                    acc += xp[ni, ci, ti, hi + i, wi + j] * k[oi, ci, i, j]
                        out[ni, oi, ti, hi, wi] = acc
    return out


def conv1d_loop(x, k, padding):
    n, c, t, h, w = x.shape
    o, _, kt = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (0, 0), (0, 0)))
    out = np.zeros((n, o, t, h, w))
    for ni in range(n):
        for oi in range(o):
            for ti in range(t):
                for hi in range(h):
                    for wi in range(w):
                        acc = 0.0
                        for ci in range(c):
                            for j in range(kt):
                                acc += xp[ni, ci, ti + j, hi, wi] * k[oi, ci, j]
                        out[ni, oi, ti, hi, wi] = acc
    return out


class TestConv2dSpatial:
    def test_constant_input(self):
        x = T.Tensor(np.ones((1, 1, 1, 3, 3)))
        k = T.Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d_spatial(x, k, 1).data[0, 0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == 4.0

    def test_identity_kernel(self, rng):
        x = T.Tensor(rng.normal(size=(2, 1, 3, 5, 5)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = T.conv2d_spatial(x, T.Tensor(k), 1)
        assert np.array_equal(out.data, x.data)

    def test_against_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 4, 8, 8))
        k = rng.normal(size=(5, 3, 3, 3))
        out = T.conv2d_spatial(T.Tensor(x), T.Tensor(k), 1)
        assert np.allclose(out.data, conv2d_loop(x, k, 1), atol=1e-12, rtol=0)

    def test_channel_mismatch(self, rng):
        x = T.Tensor(rng.normal(size=(1, 2, 1, 4, 4)))
        k = T.Tensor(rng.normal(size=(1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channel mismatch"):
            T.conv2d_spatial(x, k, 1)

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_shape_preserved_for_odd_kernels(self, rng, ksize):
        x = T.Tensor(rng.normal(size=(1, 2, 3, 7, 7)))
        k = T.Tensor(rng.normal(size=(4, 2, ksize, ksize)))
        out = T.conv2d_spatial(x, k, (ksize - 1) // 2)
        assert out.shape == (1, 4, 3, 7, 7)

    def test_linearity(self, rng):
        a, b = 1.7, -0.4
        x = rng.normal(size=(1, 2, 2, 5, 5))
        y = rng.normal(size=(1, 2, 2, 5, 5))
        k = T.Tensor(rng.normal(size=(3, 2, 3, 3)))
        lhs = T.conv2d_spatial(T.Tensor(a * x + b * y), k, 1).data
        rhs = a * T.conv2d_spatial(T.Tensor(x), k, 1).data + b * T.conv2d_spatial(T.Tensor(y), k, 1).data
        assert np.allclose(lhs, rhs, atol=1e-10, rtol=0)


class TestConv1dTemporal:
    def test_identity_kernel(self, rng):
        x = T.Tensor(rng.normal(size=(2, 2, 6, 3, 3)))
        k = np.zeros((2, 2, 3))
        k[0, 0, 1] = 1.0
        k[1, 1, 1] = 1.0
        out = T.conv1d_temporal(x, T.Tensor(k), 1)
        assert np.array_equal(out.data, x.data)

    def test_constant_input(self):
        x = T.Tensor(np.ones((1, 1, 5, 2, 2)))
        k = T.Tensor(np.ones((1, 1, 3)))
        out = T.conv1d_temporal(x, k, 1).data[0, 0, :, 0, 0]
        assert np.array_equal(out, [2.0, 3.0, 3.0, 3.0, 2.0])

    def test_against_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 6, 4, 4))
        k = rng.normal(size=(4, 3, 3))
        out = T.conv1d_temporal(T.Tensor(x), T.Tensor(k), 1)
        assert np.allclose(out.data, conv1d_loop(x, k, 1), atol=1e-12, rtol=0)

    def test_channel_mismatch(self, rng):
        x = T.Tensor(rng.normal(size=(1, 2, 4, 3, 3)))
        k = T.Tensor(rng.normal(size=(1, 3, 3)))
        with pytest.raises(ShapeError, match="channel mismatch"):
            T.conv1d_temporal(x, k, 1)


class TestElementwise:
    def test_add(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_add_zero_identity(self, rng):
        x = rng.normal(size=(3, 4))
        out = T.add(T.Tensor(x), T.Tensor(np.zeros((3, 4))))
        assert np.array_equal(out.data, x)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor([1.0]), T.Tensor([1.0, 2.0]))

    def test_relu(self):
        out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_scale_by_zero(self, rng):
        x = T.Tensor(rng.normal(size=(2, 3)))
        out = T.scale(x, 0.0)
        assert out.shape == (2, 3)
        assert not out.data.any()


class TestBatchNorm:
    def test_constant_input_normalizes_to_zero(self):
        bn = T.BatchNorm(2, "bn")
        x = T.Tensor(np.stack([np.full((1, 3, 4, 4), 5.0), np.full((1, 3, 4, 4), -2.0)], axis=1).reshape(1, 2, 3, 4, 4))
        out = bn(x, training=True)
        assert np.abs(out.data).max() < 1e-3  # epsilon-damped zero

    def test_affine_passthrough(self, rng):
        bn = T.BatchNorm(3, "bn")
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 1.0
        x = rng.normal(size=(4, 3, 2, 5, 5))
        x = (x - x.mean(axis=(0, 2, 3, 4), keepdims=True)) / x.std(axis=(0, 2, 3, 4), keepdims=True)
        out = bn(T.Tensor(x), training=True)
        assert np.allclose(out.data, 2.0 * x + 1.0, atol=1e-4)

    def test_output_statistics(self, rng):
        bn = T.BatchNorm(3, "bn")
        x = rng.normal(loc=1.5, scale=2.0, size=(4, 3, 2, 6, 6))
        out = bn(T.Tensor(x), training=True).data
        mu = out.mean(axis=(0, 2, 3, 4))
        var = out.var(axis=(0, 2, 3, 4))
        assert np.abs(mu).max() < 1e-10
        batch_var = x.var(axis=(0, 2, 3, 4))
        expected = batch_var / (batch_var + bn.EPS)
        assert np.allclose(var, expected, atol=1e-6)

    def test_eval_before_train_errors(self, rng):
        bn = T.BatchNorm(2, "bn")
        with pytest.raises(UninitializedStateError):
            bn(T.Tensor(rng.normal(size=(1, 2, 2, 3, 3))), training=False)

    def test_running_stats_track_training(self, rng):
        bn = T.BatchNorm(2, "bn")
        x = rng.normal(loc=3.0, size=(8, 2, 2, 4, 4))
        for _ in range(30):
            bn(T.Tensor(x), training=True)
        out = bn(T.Tensor(x), training=False).data
        assert np.abs(out.mean(axis=(0, 2, 3, 4))).max() < 1e-6


class TestPoolAndClassify:
    def test_all_ones(self):
        feats = T.Tensor(np.ones((2, 3, 2, 4, 4)))
        head = T.Tensor(np.ones((5, 3)))
        out = T.pool_and_classify(feats, head)
        assert np.array_equal(out.data, np.full((2, 5), 3.0))

    def test_zero_head(self, rng):
        feats = T.Tensor(rng.normal(size=(2, 3, 2, 4, 4)))
        out = T.pool_and_classify(feats, T.Tensor(np.zeros((4, 3))))
        assert not out.data.any()

    def test_against_loop_oracle(self, rng):
        feats = rng.normal(size=(3, 4, 2, 3, 3))
        head = rng.normal(size=(5, 4))
        out = T.pool_and_classify(T.Tensor(feats), T.Tensor(head)).data
        expected = np.zeros((3, 5))
        for n in range(3):
            for k in range(5):
                acc = 0.0
                for c in range(4):
                    acc += feats[n, c].mean() * head[k, c]
                expected[n, k] = acc
        assert np.allclose(out, expected, atol=1e-12, rtol=0)

    def test_width_mismatch(self, rng):
        with pytest.raises(ShapeError, match="head width"):
            T.pool_and_classify(T.Tensor(rng.normal(size=(1, 3, 1, 2, 2))), T.Tensor(rng.normal(size=(4, 5))))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = T.softmax_cross_entropy(T.Tensor(np.zeros((3, 4))), [0, 1, 2])
        assert abs(loss.item() - np.log(4)) < 1e-12

    def test_saturated(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 1000.0
        loss = T.softmax_cross_entropy(T.Tensor(logits), [1])
        assert loss.item() < 1e-6

    def test_against_logsumexp_reference(self, rng):
        logits = rng.normal(size=(5, 6))
        labels = rng.integers(0, 6, size=5)
        loss = T.softmax_cross_entropy(T.Tensor(logits), labels).item()
        ref = np.mean([
            np.log(np.sum(np.exp(row - row.max()))) + row.max() - row[lab]
            for row, lab in zip(logits, labels)
        ])
        assert abs(loss - ref) < 1e-10

    def test_out_of_range_label(self):
        with pytest.raises(IndexError, match="row 1"):
            T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), [0, 7])


class TestBackward:
    def test_linear_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        w = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = T.sum_all(T.mul(w, T.Tensor(x)))
        T.backward(loss)
        assert np.array_equal(w.grad, x)

    def test_disconnected_parameter(self, rng):
        w = T.Tensor(rng.normal(size=(2,)), requires_grad=True)
        q = T.Tensor(rng.normal(size=(2,)), requires_grad=True)
        T.backward(T.sum_all(T.mul(w, w)))
        assert q.grad is None or not q.grad.any()

    def test_non_scalar_rejected(self, rng):
        x = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.relu(x))

    def test_repeated_backward_overwrites(self, rng):
        w = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        x = T.Tensor(rng.normal(size=(3,)))
        loss = T.sum_all(T.mul(w, x))
        T.backward(loss)
        first = w.grad.copy()
        T.backward(loss)
        assert np.array_equal(w.grad, first)

    def test_diamond_graph_accumulates_within_call(self, rng):
        w = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = T.sum_all(T.add(w, w))
        T.backward(loss)
        assert np.allclose(w.grad, 2.0)


class TestNoTape:
    def _op(self, rng):
        w = T.Parameter(rng.normal(size=3), "w")
        return T.relu(T.mul(w, T.Tensor(rng.normal(size=3))))

    def _taped(self, out):
        return out.requires_grad, bool(out._parents), out._backward is not None

    def test_records_no_graph_inside(self, rng):
        with T.no_tape():
            assert self._taped(self._op(rng)) == (False, False, False)
        assert self._taped(self._op(rng)) == (True, True, True)

    def test_forward_values_unchanged(self):
        with T.no_tape():
            untaped = self._op(np.random.default_rng(0)).data
        assert untaped.tobytes() == self._op(np.random.default_rng(0)).data.tobytes()

    def test_nests(self, rng):
        with T.no_tape():
            with T.no_tape():
                pass
            assert not self._taped(self._op(rng))[2]
        assert self._taped(self._op(rng))[2]

    def test_restores_taping_after_an_exception(self, rng):
        with pytest.raises(ShapeError):
            with T.no_tape():
                T.add(T.Tensor(np.zeros(2)), T.Tensor(np.zeros(3)))
        assert self._taped(self._op(rng))[2]

    def test_as_a_decorator(self, rng):
        untaped = T.no_tape()(self._op)
        assert [self._taped(untaped(rng))[2] for _ in range(2)] == [False, False]
        assert self._taped(self._op(rng))[2]


class TestFiniteDifferences:
    """Per-op gradient checks against central differences."""

    def test_conv2d(self, rng):
        x = T.Tensor(rng.normal(size=(2, 2, 3, 4, 4)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        assert max_rel_error(lambda: linear_probe(T.conv2d_spatial(x, k, 1), np.random.default_rng(0)), [x, k]) < 1e-6

    def test_conv1d(self, rng):
        x = T.Tensor(rng.normal(size=(2, 2, 5, 3, 3)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        assert max_rel_error(lambda: linear_probe(T.conv1d_temporal(x, k, 1), np.random.default_rng(0)), [x, k]) < 1e-6

    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm(self, rng, training):
        bn = T.BatchNorm(2, "bn")
        if not training:  # seed the running statistics
            bn(T.Tensor(rng.normal(size=(2, 2, 3, 3, 3))), training=True)
        x = T.Tensor(rng.normal(size=(2, 2, 3, 3, 3)), requires_grad=True)
        make = lambda: linear_probe(bn(x, training=training), np.random.default_rng(0))
        assert max_rel_error(make, [x, bn.gamma, bn.beta]) < 1e-5

    def test_softmax_cross_entropy(self, rng):
        logits = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert max_rel_error(lambda: T.softmax_cross_entropy(logits, [0, 1, 2, 3]), [logits]) < 1e-6


class TestSGD:
    def test_single_step(self):
        w = T.Parameter(np.array(1.0), "w")
        w.grad = np.array(2.0)
        T.SGD([w], lr=0.1).step()
        assert abs(w.data - 0.8) < 1e-15

    def test_zero_grad_fixed_point(self):
        w = T.Parameter(np.array(3.0), "w")
        w.grad = np.array(0.0)
        T.SGD([w], lr=0.1, momentum=0.9).step()
        assert w.data == 3.0

    def test_momentum_recurrence(self):
        w = T.Parameter(np.array(1.0), "w")
        opt = T.SGD([w], lr=0.1, momentum=0.9)
        w.grad = np.array(2.0)
        opt.step()
        # v1 = 2, w = 1 - 0.2 = 0.8
        w.grad = np.array(1.0)
        opt.step()
        # v2 = 0.9*2 + 1 = 2.8, w = 0.8 - 0.28 = 0.52
        assert abs(w.data - 0.52) < 1e-12

    def test_step_before_backward_errors(self):
        w = T.Parameter(np.array(1.0), "w")
        with pytest.raises(UninitializedStateError, match="no gradient"):
            T.SGD([w], lr=0.1).step()


def test_determinism_of_forward(rng):
    x = np.random.default_rng(7).normal(size=(2, 3, 4, 6, 6))
    k = np.random.default_rng(8).normal(size=(4, 3, 3, 3))
    a = T.conv2d_spatial(T.Tensor(x), T.Tensor(k), 1).data
    b = T.conv2d_spatial(T.Tensor(x), T.Tensor(k), 1).data
    assert np.array_equal(a, b)
