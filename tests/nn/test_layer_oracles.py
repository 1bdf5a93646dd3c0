"""Fast nn layer paths agree with straightforward loop oracles.

``Conv2d`` runs a channels-last im2col and a per-tap col2im, and
``GELU`` cubes with plain multiplies.  The straightforward versions --
the channel-first gather im2col, the per-output-position col2im loop and
the ``x**3`` power op -- live here as test-local oracles.  The fast
paths reorder floating-point sums, so they are held to the numerics
policy's per-layer tolerance (``rtol = atol = 1e-12``) rather than to
bit identity.  ``BatchNorm2d`` computes the same sums as its oracle and
must match it exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import GELU, BatchNorm2d, Conv2d

TOL = dict(rtol=1e-12, atol=1e-12)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def im2col_oracle(x, k, stride, pad):
    """(N, C, H, W) -> (N, oh, ow, C*k*k), columns in (C, kh, kw) order."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, out_h, out_w, k, k), strides=strides
    )
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w, c * k * k)
    return np.ascontiguousarray(cols)


def col2im_oracle(gcols, x_shape, k, stride, pad):
    """Add each output position's (C, k, k) patch gradient into its window."""
    n, c, h, w = x_shape
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    gcols = gcols.reshape(n, gcols.shape[1], gcols.shape[2], c, k, k)
    for i in range(gcols.shape[1]):
        for j in range(gcols.shape[2]):
            gx[:, :, i * stride : i * stride + k, j * stride : j * stride + k] += gcols[:, i, j]
    if pad:
        gx = gx[:, :, pad:-pad, pad:-pad]
    return gx


def conv_oracle(conv, x, grad):
    """(y, gx, gw, gb) of one forward + backward pass, OIHW GEMM order."""
    k, s, p = conv.kernel_size, conv.stride, conv.padding
    cols = im2col_oracle(x, k, s, p)
    w2d = conv.effective_weight().reshape(conv.out_channels, -1)
    y = cols @ w2d.T + conv.params["bias"]
    g = grad.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)
    gw = (g.T @ cols.reshape(-1, cols.shape[-1])).reshape(conv.params["weight"].shape)
    gb = g.sum(axis=0)
    gcols = (g @ w2d).reshape(*cols.shape[:3], -1)
    return y.transpose(0, 3, 1, 2), col2im_oracle(gcols, x.shape, k, s, p), gw, gb


def gelu_oracle(x, grad):
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    y = 0.5 * x * (1.0 + t)
    dinner = c * (1.0 + 3 * 0.044715 * x**2)
    dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
    return y, grad * dy


# ---------------------------------------------------------------------------
# equivalence properties
# ---------------------------------------------------------------------------


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.sampled_from([0, 1, 2]))
    lo = max(1, k - 2 * pad)
    h = draw(st.integers(lo, lo + 6))
    w = draw(st.integers(lo, lo + 6))
    c_in = draw(st.integers(1, 4))
    c_out = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    masked = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return k, stride, pad, (n, c_in, h, w), c_out, masked, seed


@settings(max_examples=80, deadline=None)
@given(case=conv_cases())
def test_conv2d_matches_oracle(case):
    k, stride, pad, x_shape, c_out, masked, seed = case
    rng = np.random.default_rng(seed)
    conv = Conv2d(x_shape[1], c_out, k, stride=stride, padding=pad, seed=seed)
    conv.params["bias"] = rng.normal(size=c_out)
    if masked:
        conv.set_mask(rng.random(conv.weight_matrix().shape) < 0.5)
    x = rng.normal(size=x_shape)

    conv.zero_grad()
    y = conv.forward(x)
    grad = rng.normal(size=y.shape)
    gx = conv.backward(grad)

    y_ref, gx_ref, gw_ref, gb_ref = conv_oracle(conv, x, grad)
    np.testing.assert_allclose(y, y_ref, **TOL)
    np.testing.assert_allclose(gx, gx_ref, **TOL)
    assert gx.shape == x.shape
    assert conv.grads["weight"].shape == conv.params["weight"].shape
    np.testing.assert_allclose(conv.grads["weight"], gw_ref, **TOL)
    np.testing.assert_allclose(conv.grads["bias"], gb_ref, **TOL)
    # The patch matrix handed to calibration is the oracle's, column for column.
    cols_ref = im2col_oracle(x, k, stride, pad)
    np.testing.assert_array_equal(conv.patch_matrix(), cols_ref.reshape(-1, cols_ref.shape[-1]))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(7,), (4, 5), (2, 3, 8)]),
    scale=st.sampled_from([0.1, 1.0, 4.0]),
    seed=st.integers(0, 2**16),
)
def test_gelu_matches_oracle(shape, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=scale, size=shape)
    grad = rng.normal(size=shape)
    gelu = GELU()
    y = gelu.forward(x)
    gx = gelu.backward(grad)
    y_ref, gx_ref = gelu_oracle(x, grad)
    np.testing.assert_allclose(y, y_ref, **TOL)
    np.testing.assert_allclose(gx, gx_ref, **TOL)


def batchnorm_oracle(bn, x):
    """Training-mode forward as ``x.mean`` + ``x.var``; returns (out, mean, var, xhat)."""
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    m = mean[None, :, None, None]
    v = var[None, :, None, None]
    xhat = (x - m) / np.sqrt(v + bn.eps)
    out = bn.params["gamma"][None, :, None, None] * xhat + bn.params["beta"][None, :, None, None]
    return out, mean, var, xhat


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(4, 3, 5, 5), (2, 6, 4, 4), (8, 2, 3, 7)]),
    channels_last=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_batchnorm_matches_oracle_exactly(shape, channels_last, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(1.5, 2.0, size=shape)
    if channels_last:
        # The layout a Conv2d output has: an NHWC buffer viewed as NCHW.
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    bn = BatchNorm2d(shape[1])
    bn.params["gamma"] = rng.normal(size=shape[1])
    bn.params["beta"] = rng.normal(size=shape[1])
    out = bn.forward(x)
    out_ref, mean, var, xhat = batchnorm_oracle(bn, x)
    assert np.array_equal(bn._xhat, xhat)
    assert np.array_equal(out, out_ref)
    mom = bn.momentum
    assert np.array_equal(bn.running_mean, (1 - mom) * np.zeros(shape[1]) + mom * mean)
    assert np.array_equal(bn.running_var, (1 - mom) * np.ones(shape[1]) + mom * var)
