"""Layer tests: shapes, analytic behaviour, and finite-difference gradients."""

import numpy as np
import pytest

from repro.nn import (
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)


def finite_difference_check(layer, x, rng, eps=1e-6, atol=1e-5):
    """Compare backward() against central finite differences.

    Checks both the input gradient and every parameter gradient for a
    random scalar objective ``sum(g * layer(x))``.
    """
    g = rng.standard_normal(layer(x).shape)

    def objective(inp):
        return float(np.sum(g * layer(inp)))

    layer.zero_grad()
    layer(x)
    grad_in = layer.backward(g)

    # input gradient
    num_grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        num_grad[idx] = (objective(xp) - objective(xm)) / (2 * eps)
    np.testing.assert_allclose(grad_in, num_grad, atol=atol)

    # parameter gradients
    for p in layer.parameters():
        analytic = p.grad.copy()
        num = np.zeros_like(p.value)
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + eps
            up = objective(x)
            p.value[idx] = orig - eps
            down = objective(x)
            p.value[idx] = orig
            num[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, num, atol=atol)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 7, rng=rng)
        assert layer(rng.standard_normal((3, 4))).shape == (3, 7)

    def test_1d_input_promoted(self, rng):
        layer = Linear(4, 7, rng=rng)
        assert layer(rng.standard_normal(4)).shape == (1, 7)

    def test_wrong_input_dim_raises(self, rng):
        layer = Linear(4, 7, rng=rng)
        with pytest.raises(ValueError, match="expected input dim 4"):
            layer(rng.standard_normal((3, 5)))

    def test_no_bias(self, rng):
        layer = Linear(3, 2, rng=rng, bias=False)
        assert len(layer.parameters()) == 1
        x = np.zeros((1, 3))
        np.testing.assert_allclose(layer(x), 0.0)

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(3, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 4)

    def test_gradients(self, rng):
        layer = Linear(4, 3, rng=rng)
        finite_difference_check(layer, rng.standard_normal((5, 4)), rng)

    def test_gradient_accumulates(self, rng):
        layer = Linear(2, 2, rng=rng)
        x = rng.standard_normal((3, 2))
        g = rng.standard_normal((3, 2))
        layer(x)
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)


class TestActivations:
    @pytest.mark.parametrize(
        "layer_cls", [ReLU, Tanh, Sigmoid, Softmax, LeakyReLU, Identity]
    )
    def test_gradients(self, layer_cls, rng):
        layer = layer_cls()
        finite_difference_check(layer, rng.standard_normal((4, 6)), rng)

    def test_relu_clamps_negative(self):
        layer = ReLU()
        out = layer(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_leaky_relu_negative_slope(self):
        layer = LeakyReLU(0.1)
        out = layer(np.array([[-10.0, 10.0]]))
        np.testing.assert_allclose(out, [[-1.0, 10.0]])

    def test_tanh_bounded(self, rng):
        out = Tanh()(rng.standard_normal((10, 10)) * 100)
        assert np.all(np.abs(out) <= 1.0)

    def test_sigmoid_extreme_inputs_stable(self):
        out = Sigmoid()(np.array([[-1e4, 1e4]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        out = Softmax()(rng.standard_normal((8, 5)) * 10)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(8))

    def test_softmax_shift_invariant(self, rng):
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(Softmax()(x), Softmax()(x + 100.0))

    @pytest.mark.parametrize("layer_cls", [ReLU, Tanh, Sigmoid, Softmax, LeakyReLU])
    def test_backward_before_forward_raises(self, layer_cls):
        with pytest.raises(RuntimeError):
            layer_cls().backward(np.zeros((1, 2)))


class TestSequential:
    def test_composed_gradients(self, rng):
        net = Sequential(Linear(4, 6, rng=rng), ReLU(), Linear(6, 3, rng=rng), Tanh())
        finite_difference_check(net, rng.standard_normal((4, 4)), rng)

    def test_len_and_getitem(self, rng):
        net = Sequential(Linear(2, 2, rng=rng), ReLU())
        assert len(net) == 2
        assert isinstance(net[1], ReLU)

    def test_append_registers_parameters(self, rng):
        net = Sequential(Linear(2, 3, rng=rng))
        net.append(Linear(3, 1, rng=rng))
        assert len(net.parameters()) == 4

    def test_empty_sequential_is_identity(self, rng):
        net = Sequential()
        x = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(net(x), x)
