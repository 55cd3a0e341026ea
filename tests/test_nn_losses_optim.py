"""Tests for losses, optimizers, initializers, and functional helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    Linear,
    Parameter,
    Sequential,
    clip_grad_norm,
    get_initializer,
    gumbel_softmax,
    he_normal,
    he_uniform,
    mse_loss,
    one_hot,
    softmax,
    uniform_fan_in,
    weighted_mse_loss,
    xavier_normal,
    xavier_uniform,
)


class TestLosses:
    def test_mse_value(self):
        loss, _ = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(2.5)

    def test_mse_gradient_matches_finite_difference(self, rng):
        pred = rng.standard_normal((6, 1))
        target = rng.standard_normal((6, 1))
        _, grad = mse_loss(pred, target)
        eps = 1e-6
        for idx in np.ndindex(pred.shape):
            p = pred.copy()
            p[idx] += eps
            up, _ = mse_loss(p, target)
            p[idx] -= 2 * eps
            down, _ = mse_loss(p, target)
            assert grad[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-6)

    def test_weighted_mse_reduces_to_mse_with_unit_weights(self, rng):
        pred = rng.standard_normal((5, 1))
        target = rng.standard_normal((5, 1))
        l1, g1 = mse_loss(pred, target)
        l2, g2 = weighted_mse_loss(pred, target, np.ones((5, 1)))
        assert l1 == pytest.approx(l2)
        np.testing.assert_allclose(g1, g2)

    def test_weighted_mse_zero_weight_kills_gradient(self, rng):
        pred = rng.standard_normal((4, 1))
        target = pred + 1.0
        weights = np.array([[1.0], [0.0], [1.0], [0.0]])
        _, grad = weighted_mse_loss(pred, target, weights)
        assert grad[1, 0] == 0.0 and grad[3, 0] == 0.0
        assert grad[0, 0] != 0.0

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError):
            weighted_mse_loss(np.ones(2), np.zeros(2), np.array([1.0, -1.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones(3), np.ones(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones(0), np.ones(0))


class TestOptimizers:
    def test_adam_first_step_is_lr_sized(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad[:] = 123.0  # magnitude-invariant first step
        opt.step()
        assert p.value[0] == pytest.approx(-0.01, rel=1e-6)

    def test_adam_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            p.grad[:] = 2 * p.value  # d/dx x^2
            opt.step()
        assert abs(p.value[0]) < 1e-3

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.999))

    def test_zero_grad(self):
        p = Parameter(np.zeros(2))
        p.grad[:] = 3.0
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert np.all(p.grad == 0)


class TestClipGradNorm:
    def test_no_clip_below_max(self):
        p = Parameter(np.zeros(2))
        p.grad[:] = [0.3, 0.4]  # norm 0.5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_clips_to_max(self):
        p = Parameter(np.zeros(2))
        p.grad[:] = [3.0, 4.0]  # norm 5
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_global_norm_across_params(self):
        a = Parameter(np.zeros(1))
        b = Parameter(np.zeros(1))
        a.grad[:] = 3.0
        b.grad[:] = 4.0
        clip_grad_norm([a, b], max_norm=1.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        assert total == pytest.approx(1.0)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)


class TestInitializers:
    @pytest.mark.parametrize(
        "init", [xavier_uniform, xavier_normal, he_uniform, he_normal, uniform_fan_in]
    )
    def test_shape_and_determinism(self, init):
        a = init(np.random.default_rng(7), (64, 32))
        b = init(np.random.default_rng(7), (64, 32))
        assert a.shape == (64, 32)
        np.testing.assert_array_equal(a, b)

    def test_xavier_uniform_bound(self):
        w = xavier_uniform(np.random.default_rng(0), (100, 100))
        bound = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= bound)

    def test_he_normal_variance(self):
        w = he_normal(np.random.default_rng(0), (10_000, 4))
        assert np.var(w) == pytest.approx(2.0 / 10_000, rel=0.1)

    def test_registry_lookup(self):
        assert get_initializer("xavier_uniform") is xavier_uniform
        with pytest.raises(KeyError, match="available"):
            get_initializer("nope")

    def test_non_2d_shape_raises(self):
        with pytest.raises(ValueError):
            xavier_uniform(np.random.default_rng(0), (3,))


class TestFunctional:
    def test_one_hot_basic(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_gumbel_softmax_soft_rows_sum_to_one(self, rng):
        out = gumbel_softmax(rng.standard_normal((6, 5)), rng=rng)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6))

    def test_gumbel_softmax_hard_is_one_hot(self, rng):
        out = gumbel_softmax(rng.standard_normal((6, 5)), rng=rng, hard=True)
        assert np.all(np.isin(out, [0.0, 1.0]))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6))

    def test_gumbel_softmax_no_rng_is_deterministic_softmax(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(gumbel_softmax(logits), softmax(logits))

    def test_gumbel_softmax_temperature_validation(self, rng):
        with pytest.raises(ValueError):
            gumbel_softmax(np.zeros((1, 3)), rng=rng, temperature=0.0)

    def test_gumbel_sampling_distribution_tracks_logits(self):
        rng = np.random.default_rng(0)
        logits = np.log(np.array([[0.7, 0.2, 0.1]]))
        draws = np.zeros(3)
        for _ in range(3000):
            hard = gumbel_softmax(logits, rng=rng, hard=True)
            draws += hard[0]
        freq = draws / draws.sum()
        np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.04)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=64))
    @settings(max_examples=25, deadline=None)
    def test_one_hot_round_trip(self, num_classes, n):
        rng = np.random.default_rng(n)
        idx = rng.integers(0, num_classes, size=n)
        encoded = one_hot(idx, num_classes)
        np.testing.assert_array_equal(encoded.argmax(axis=-1), idx)
        np.testing.assert_allclose(encoded.sum(axis=-1), 1.0)
