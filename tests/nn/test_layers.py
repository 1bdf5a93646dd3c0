"""Gradient-checked tests for every layer in the nn substrate."""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GELU,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadSelfAttention,
    ReLU,
    Residual,
    Sequential,
    TransformerEncoderLayer,
)

RNG = np.random.default_rng(0)


def numeric_grad_input(layer, x, eps=1e-5):
    """Central-difference gradient of sum(layer(x)) w.r.t. x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        up = layer.forward(x).sum()
        x[idx] = orig - eps
        down = layer.forward(x).sum()
        x[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def check_input_grad(layer, x, tol=1e-5):
    layer.train()
    out = layer.forward(x.copy())
    analytic = layer.backward(np.ones_like(out))
    numeric = numeric_grad_input(layer, x.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=tol)


def numeric_grad_param(layer, x, name, eps=1e-5):
    param = layer.params[name]
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + eps
        up = layer.forward(x).sum()
        param[idx] = orig - eps
        down = layer.forward(x).sum()
        param[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def check_param_grads(module, x, owner=None, tol=1e-4):
    """Check every parameter gradient of ``module`` numerically."""
    module.train()
    module.zero_grad()
    out = module.forward(x)
    module.backward(np.ones_like(out))
    for mod in module.modules():
        for name in mod.params:
            numeric = numeric_grad_param_of(module, mod, name, x)
            np.testing.assert_allclose(
                mod.grads[name], numeric, rtol=2e-3, atol=tol,
                err_msg=f"param {type(mod).__name__}.{name}",
            )


def numeric_grad_param_of(root, mod, name, x, eps=1e-5):
    param = mod.params[name]
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + eps
        up = root.forward(x).sum()
        param[idx] = orig - eps
        down = root.forward(x).sum()
        param[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(6, 4, seed=1)
        assert layer(RNG.normal(size=(3, 6))).shape == (3, 4)

    def test_input_grad(self):
        check_input_grad(Linear(5, 3, seed=2), RNG.normal(size=(4, 5)))

    def test_param_grads(self):
        layer = Linear(4, 3, seed=3)
        check_param_grads(layer, RNG.normal(size=(5, 4)))

    def test_mask_zeroes_outputs(self):
        layer = Linear(4, 2, bias=False, seed=4)
        layer.set_mask(np.zeros((2, 4), dtype=bool))
        assert np.allclose(layer(RNG.normal(size=(3, 4))), 0.0)

    def test_mask_straight_through_gradient(self):
        """Pruned weights still receive gradient (Sec. III-B revival)."""
        layer = Linear(4, 2, bias=False, seed=5)
        mask = np.ones((2, 4), dtype=bool)
        mask[0, 0] = False
        layer.set_mask(mask)
        x = RNG.normal(size=(3, 4))
        out = layer(x)
        layer.backward(np.ones_like(out))
        assert layer.grads["weight"][0, 0] != 0.0

    def test_mask_shape_check(self):
        with pytest.raises(ValueError):
            Linear(4, 2).set_mask(np.ones((3, 3), dtype=bool))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 2)

    def test_3d_input(self):
        layer = Linear(6, 4, seed=6)
        assert layer(RNG.normal(size=(2, 5, 6))).shape == (2, 5, 4)


class TestConv2d:
    def test_forward_shape(self):
        conv = Conv2d(3, 8, 3, padding=1, seed=1)
        assert conv(RNG.normal(size=(2, 3, 8, 8))).shape == (2, 8, 8, 8)

    def test_stride(self):
        conv = Conv2d(3, 4, 3, stride=2, padding=1, seed=2)
        assert conv(RNG.normal(size=(1, 3, 8, 8))).shape == (1, 4, 4, 4)

    def test_matches_direct_convolution(self):
        conv = Conv2d(1, 1, 3, padding=0, bias=False, seed=3)
        x = RNG.normal(size=(1, 1, 5, 5))
        out = conv(x)
        w = conv.params["weight"][0, 0]
        expected = sum(
            w[i, j] * x[0, 0, i : i + 3, j : j + 3] for i in range(3) for j in range(3)
        )
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-10)

    def test_input_grad(self):
        check_input_grad(Conv2d(2, 3, 3, padding=1, seed=4), RNG.normal(size=(2, 2, 4, 4)))

    def test_param_grads(self):
        conv = Conv2d(2, 2, 3, padding=1, seed=5)
        check_param_grads(conv, RNG.normal(size=(2, 2, 4, 4)))

    def test_input_grad_stride2(self):
        check_input_grad(
            Conv2d(2, 3, 3, stride=2, padding=1, seed=8), RNG.normal(size=(2, 2, 5, 5))
        )

    def test_param_grads_stride2(self):
        conv = Conv2d(2, 2, 3, stride=2, padding=1, seed=9)
        check_param_grads(conv, RNG.normal(size=(2, 2, 5, 5)))

    def test_input_grad_pointwise(self):
        check_input_grad(
            Conv2d(3, 2, kernel_size=1, padding=0, seed=10), RNG.normal(size=(2, 3, 3, 4))
        )

    def test_param_grads_pointwise(self):
        conv = Conv2d(3, 2, kernel_size=1, padding=0, seed=11)
        check_param_grads(conv, RNG.normal(size=(2, 3, 3, 4)))

    def test_weight_matrix_shape(self):
        conv = Conv2d(3, 8, 3, seed=6)
        assert conv.weight_matrix().shape == (8, 27)

    def test_mask_applies(self):
        conv = Conv2d(2, 2, 3, padding=1, bias=False, seed=7)
        conv.set_mask(np.zeros((2, 18), dtype=bool))
        assert np.allclose(conv(RNG.normal(size=(1, 2, 4, 4))), 0.0)


class TestActivations:
    def test_relu_grad(self):
        check_input_grad(ReLU(), RNG.normal(size=(4, 5)) + 0.1)

    def test_gelu_grad(self):
        check_input_grad(GELU(), RNG.normal(size=(4, 5)))

    def test_gelu_values(self):
        g = GELU()
        assert g.forward(np.array([[0.0]]))[0, 0] == pytest.approx(0.0)
        assert g.forward(np.array([[10.0]]))[0, 0] == pytest.approx(10.0, rel=1e-3)


class TestNorms:
    def test_batchnorm_normalizes(self):
        bn = BatchNorm2d(3)
        x = RNG.normal(2.0, 3.0, size=(8, 3, 4, 4))
        out = bn(x)
        assert abs(out.mean()) < 1e-7
        assert out.std() == pytest.approx(1.0, abs=0.01)

    def test_batchnorm_input_grad(self):
        check_input_grad(BatchNorm2d(2), RNG.normal(size=(3, 2, 3, 3)), tol=1e-4)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm2d(2)
        for _ in range(50):
            bn(RNG.normal(1.0, 2.0, size=(16, 2, 4, 4)))
        bn.eval()
        out = bn(RNG.normal(1.0, 2.0, size=(16, 2, 4, 4)))
        assert abs(out.mean()) < 0.2

    def test_layernorm_grad(self):
        check_input_grad(LayerNorm(6), RNG.normal(size=(4, 6)), tol=1e-4)

    def test_layernorm_param_grads(self):
        check_param_grads(LayerNorm(4), RNG.normal(size=(3, 4)))


class TestPoolingAndShape:
    def test_maxpool_forward(self):
        pool = MaxPool2d(2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        np.testing.assert_array_equal(pool(x)[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_grad_routes_to_max(self):
        pool = MaxPool2d(2)
        x = RNG.normal(size=(1, 1, 4, 4))
        out = pool(x)
        gx = pool.backward(np.ones_like(out))
        assert gx.sum() == pytest.approx(out.size)
        assert (gx != 0).sum() == out.size

    def test_maxpool_rejects_unaligned(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.zeros((1, 1, 5, 5)))

    def test_global_avgpool_grad(self):
        check_input_grad(GlobalAvgPool2d(), RNG.normal(size=(2, 3, 4, 4)))

    def test_flatten_roundtrip(self):
        f = Flatten()
        x = RNG.normal(size=(2, 3, 4))
        out = f(x)
        assert out.shape == (2, 12)
        assert f.backward(out).shape == x.shape


class TestDropout:
    def test_eval_is_identity(self):
        d = Dropout(0.5)
        d.eval()
        x = RNG.normal(size=(4, 4))
        np.testing.assert_array_equal(d(x), x)

    def test_train_scales(self):
        d = Dropout(0.5, seed=1)
        x = np.ones((1000, 10))
        out = d(x)
        assert out.mean() == pytest.approx(1.0, abs=0.1)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestComposite:
    def test_sequential_grad(self):
        model = Sequential(Linear(5, 6, seed=1), ReLU(), Linear(6, 3, seed=2))
        check_param_grads(model, RNG.normal(size=(3, 5)))

    def test_residual_grad(self):
        model = Residual(Sequential(Linear(4, 4, seed=3), ReLU()))
        check_input_grad(model, RNG.normal(size=(3, 4)))

    def test_attention_shapes(self):
        attn = MultiHeadSelfAttention(8, heads=2, seed=1)
        assert attn(RNG.normal(size=(2, 5, 8))).shape == (2, 5, 8)

    def test_attention_input_grad(self):
        attn = MultiHeadSelfAttention(4, heads=2, seed=2)
        check_input_grad(attn, RNG.normal(size=(1, 3, 4)) * 0.5, tol=1e-4)

    def test_attention_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(6, heads=4)

    def test_encoder_layer_grad(self):
        block = TransformerEncoderLayer(4, heads=2, seed=3)
        check_input_grad(block, RNG.normal(size=(1, 3, 4)) * 0.5, tol=1e-3)

    def test_parameter_counting(self):
        model = Sequential(Linear(4, 8, seed=1), ReLU(), Linear(8, 2, seed=2))
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_zero_grad(self):
        model = Sequential(Linear(3, 3, seed=1))
        x = RNG.normal(size=(2, 3))
        model.backward_input = model(x)
        model.backward(np.ones((2, 3)))
        model.zero_grad()
        assert np.all(model.layers[0].grads["weight"] == 0)
