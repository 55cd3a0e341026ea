"""Per-kernel closeness contract: backend kernels vs numpy references.

Tolerance policy (documented here, enforced below, and referenced by
``docs/architecture.md``): every kernel mirrors the reference numpy
path's floating-point expression order, so

* in **python mode** (the un-jitted kernel source) the elementwise
  kernels — ``td_target``, ``mse_loss_grad``, ``weighted_mse_loss_grad``,
  ``softmax_temp``, ``adam_step``, ``soft_update`` — are *bit-identical*
  to the references, and the GEMM-built kernels match at
  ``rtol=1e-10 / atol=1e-12`` (``np.dot`` on 2-D slices vs ``np.matmul``
  on 3-D stacks may associate reductions differently);
* under **numba** (the CI ``backend-numba`` job reruns this module with
  ``REPRO_BACKEND=numba``) only the ``rtol=1e-10 / atol=1e-12`` bound is
  asserted everywhere — BLAS/sequential reduction order is the sole
  source of divergence, and exceeding 1e-10 relative would indicate a
  semantic bug, not rounding.

The module tests whichever kernel set the resolved backend carries
(python mode by default, jitted under ``REPRO_BACKEND=numba``), so the
same assertions certify both execution modes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.backend import get_backend, kernel_backend
from repro.nn.functional import softmax_temperature
from repro.nn.losses import mse_loss, weighted_mse_loss
from tests.conftest import ENGINE

_RESOLVED = get_backend(ENGINE["backend"])
#: Kernel set under test: the matrix-selected backend's when it carries
#: one (the numba CI job), python mode otherwise.
K = _RESOLVED.kernels if _RESOLVED.kernels is not None else kernel_backend().kernels
#: Bit-exactness only holds for the un-jitted kernel source.
EXACT = not _RESOLVED.jitted

TOL = dict(rtol=1e-10, atol=1e-12)

dims = st.tuples(
    st.integers(1, 4),   # stacks
    st.integers(1, 16),  # batch
    st.integers(1, 8),   # in features
    st.integers(1, 8),   # hidden
    st.integers(1, 6),   # out features
)
seeds = st.integers(0, 2**32 - 1)


def _mlp3(rng, s, b, din, hid, dout):
    x = rng.standard_normal((s, b, din))
    w0, b0 = rng.standard_normal((s, din, hid)), rng.standard_normal((s, hid))
    w1, b1 = rng.standard_normal((s, hid, hid)), rng.standard_normal((s, hid))
    w2, b2 = rng.standard_normal((s, hid, dout)), rng.standard_normal((s, dout))
    return x, w0, b0, w1, b1, w2, b2


def _ref_forward(x, w0, b0, w1, b1, w2, b2):
    h0 = np.maximum(np.matmul(x, w0) + b0[:, None, :], 0.0)
    h1 = np.maximum(np.matmul(h0, w1) + b1[:, None, :], 0.0)
    return h0, h1, np.matmul(h1, w2) + b2[:, None, :]


def _assert_close(got, want):
    if EXACT and got.shape == want.shape and np.array_equal(got, want):
        return
    np.testing.assert_allclose(got, want, **TOL)


class TestMLP3Kernels:
    @given(dims=dims, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_infer_matches_stacked_forward(self, dims, seed):
        rng = np.random.default_rng(seed)
        x, *params = _mlp3(rng, *dims)
        _, _, want = _ref_forward(x, *params)
        np.testing.assert_allclose(K.mlp3_infer(x, *params), want, **TOL)

    @given(dims=dims, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_forward_returns_relu_caches(self, dims, seed):
        rng = np.random.default_rng(seed)
        x, *params = _mlp3(rng, *dims)
        want_h0, want_h1, want_out = _ref_forward(x, *params)
        h0, h1, out = K.mlp3_forward(x, *params)
        np.testing.assert_allclose(h0, want_h0, **TOL)
        np.testing.assert_allclose(h1, want_h1, **TOL)
        np.testing.assert_allclose(out, want_out, **TOL)

    @given(dims=dims, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_backward_params_accumulates_reference_grads(self, dims, seed):
        rng = np.random.default_rng(seed)
        x, w0, b0, w1, b1, w2, b2 = _mlp3(rng, *dims)
        h0, h1, out = _ref_forward(x, w0, b0, w1, b1, w2, b2)
        g_out = rng.standard_normal(out.shape)
        # reference: backprop through the stacked 3-Linear ReLU chain
        g2 = g_out
        want_gw2 = np.matmul(h1.transpose(0, 2, 1), g2)
        want_gb2 = g2.sum(axis=1)
        g1 = np.where(h1 > 0.0, np.matmul(g2, w2.transpose(0, 2, 1)), 0.0)
        want_gw1 = np.matmul(h0.transpose(0, 2, 1), g1)
        want_gb1 = g1.sum(axis=1)
        g0 = np.where(h0 > 0.0, np.matmul(g1, w1.transpose(0, 2, 1)), 0.0)
        want_gw0 = np.matmul(x.transpose(0, 2, 1), g0)
        want_gb0 = g0.sum(axis=1)
        grads = [np.zeros_like(a) for a in (w0, b0, w1, b1, w2, b2)]
        K.mlp3_backward_params(x, h0, h1, g_out, w1, w2, *grads)
        for got, want in zip(
            grads, (want_gw0, want_gb0, want_gw1, want_gb1, want_gw2, want_gb2)
        ):
            np.testing.assert_allclose(got, want, **TOL)
        # the contract is += accumulation (twin critics share buffers)
        K.mlp3_backward_params(x, h0, h1, g_out, w1, w2, *grads)
        np.testing.assert_allclose(grads[0], 2.0 * want_gw0, **TOL)

    @given(dims=dims, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_input_grad_matches_reference_chain(self, dims, seed):
        rng = np.random.default_rng(seed)
        x, w0, b0, w1, b1, w2, b2 = _mlp3(rng, *dims)
        h0, h1, out = _ref_forward(x, w0, b0, w1, b1, w2, b2)
        g_out = rng.standard_normal(out.shape)
        g1 = np.where(h1 > 0.0, np.matmul(g_out, w2.transpose(0, 2, 1)), 0.0)
        g0 = np.where(h0 > 0.0, np.matmul(g1, w1.transpose(0, 2, 1)), 0.0)
        want = np.matmul(g0, w0.transpose(0, 2, 1))
        np.testing.assert_allclose(
            K.mlp3_input_grad(g_out, w0, w1, w2, h0, h1), want, **TOL
        )


class TestElementwiseKernels:
    @given(
        n=st.integers(1, 4), b=st.integers(1, 32),
        gamma=st.floats(0.0, 1.0), seed=seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_td_target(self, n, b, gamma, seed):
        rng = np.random.default_rng(seed)
        rew = rng.standard_normal((n, b))
        done = rng.integers(0, 2, size=(n, b)).astype(float)
        q_next = rng.standard_normal((n, b, 1))
        want = rew[:, :, None] + gamma * (1.0 - done[:, :, None]) * q_next
        _assert_close(K.td_target(rew, done, q_next, gamma), want)

    @given(b=st.integers(1, 64), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_mse_matches_losses_module(self, b, seed):
        rng = np.random.default_rng(seed)
        pred, target = rng.standard_normal((b, 1)), rng.standard_normal((b, 1))
        want_loss, want_grad = mse_loss(pred, target)
        loss, grad = K.mse_loss_grad(pred, target)
        if EXACT:
            assert float(loss) == want_loss
            assert np.array_equal(grad, want_grad)
        else:
            np.testing.assert_allclose(loss, want_loss, **TOL)
            np.testing.assert_allclose(grad, want_grad, **TOL)

    @given(b=st.integers(1, 64), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_weighted_mse_matches_losses_module(self, b, seed):
        rng = np.random.default_rng(seed)
        pred, target = rng.standard_normal((b, 1)), rng.standard_normal((b, 1))
        weights = rng.uniform(0.1, 2.0, size=(b, 1))
        want_loss, want_grad = weighted_mse_loss(pred, target, weights)
        loss, grad = K.weighted_mse_loss_grad(pred, target, weights)
        if EXACT:
            assert float(loss) == want_loss
            assert np.array_equal(grad, want_grad)
        else:
            np.testing.assert_allclose(loss, want_loss, **TOL)
            np.testing.assert_allclose(grad, want_grad, **TOL)

    @given(
        s=st.integers(1, 4), b=st.integers(1, 16), f=st.integers(1, 8),
        temp=st.floats(0.1, 5.0), seed=seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_softmax_temp_matches_functional(self, s, b, f, temp, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((s, b, f)) * 5.0
        want = softmax_temperature(logits, temp)
        _assert_close(K.softmax_temp(logits, temp), want)

    @given(
        s=st.integers(1, 4), b=st.integers(1, 16), f=st.integers(1, 8),
        temp=st.floats(0.1, 5.0), coef=st.floats(0.0, 0.1), seed=seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_policy_grad_matches_engine_formula(self, s, b, f, temp, coef, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((s, b, f))
        soft = softmax_temperature(logits, temp)
        grad_soft = rng.standard_normal((s, b, f))
        dot = np.sum(grad_soft * soft, axis=-1, keepdims=True)
        want = soft * (grad_soft - dot) / temp + coef * logits
        np.testing.assert_allclose(
            K.policy_grad(soft, grad_soft, logits, temp, coef), want, **TOL
        )

    @given(n=st.integers(1, 128), t=st.integers(1, 50), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_adam_step_matches_reference_expression(self, n, t, seed):
        rng = np.random.default_rng(seed)
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        p = rng.standard_normal(n)
        g = rng.standard_normal(n)
        m = rng.standard_normal(n) * 0.1
        v = np.abs(rng.standard_normal(n)) * 0.1
        bias1 = 1.0 - beta1**t
        bias2 = 1.0 - beta2**t
        want_m = beta1 * m + (1.0 - beta1) * g
        want_v = beta2 * v + (1.0 - beta2) * g**2
        want_p = p - lr * (want_m / bias1) / (np.sqrt(want_v / bias2) + eps)
        K.adam_step(p, g, m, v, lr, beta1, beta2, eps, bias1, bias2)
        for got, want in ((p, want_p), (m, want_m), (v, want_v)):
            if EXACT:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, **TOL)

    @given(n=st.integers(1, 128), tau=st.floats(0.001, 1.0), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_soft_update_matches_lerp(self, n, tau, seed):
        rng = np.random.default_rng(seed)
        target = rng.standard_normal(n)
        source = rng.standard_normal(n)
        want = target * (1.0 - tau)
        want = want + tau * source
        K.soft_update(target, source, tau)
        if EXACT:
            assert np.array_equal(target, want)
        else:
            np.testing.assert_allclose(target, want, **TOL)
