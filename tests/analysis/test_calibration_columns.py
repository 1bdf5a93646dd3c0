"""Calibration activations line up with ``weight_matrix()`` columns.

Wanda and SparseGPT score weight ``W[o, j]`` with activation column
``j``, so the conv patch matrix ``capture_layer_inputs`` returns must
use the weight matrix's (C_in, kh, kw) column order whatever layout the
convolution computes in.  A permuted patch matrix still has the right
shape, so only this product check catches it.
"""

import numpy as np

from repro.analysis.experiments import capture_layer_inputs
from repro.nn.layers import Conv2d
from repro.nn.models import make_cnn, prunable_layers


def test_conv_activations_reproduce_pre_bias_output():
    model = make_cnn(channels=3, width=6, n_classes=4, seed=3)
    convs = [layer for layer in prunable_layers(model) if isinstance(layer, Conv2d)]
    assert convs
    outputs = {}
    rng = np.random.default_rng(1)
    for conv in convs:
        conv.params["bias"] = rng.normal(size=conv.out_channels)

        def recording_forward(x, conv=conv, forward=conv.forward):
            y = forward(x)
            outputs[id(conv)] = y
            return y

        conv.forward = recording_forward

    x = np.random.default_rng(0).normal(size=(4, 3, 8, 8))
    acts = capture_layer_inputs(model, x)

    for conv in convs:
        y = outputs[id(conv)]
        pre_bias = (y - conv.params["bias"][None, :, None, None]).transpose(0, 2, 3, 1)
        got = acts[id(conv)] @ conv.weight_matrix().T
        np.testing.assert_allclose(
            got, pre_bias.reshape(-1, conv.out_channels), rtol=1e-10, atol=1e-10
        )
