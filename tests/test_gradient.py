"""Backpropagation against central finite differences."""

import zlib

import numpy as np
import pytest

from mdfgan.nn import DFT, IDENTITY, SIGMOID, Activation, DenseNetwork, leaky_relu
from oracles import fd_input_grad, fd_parameter_grads, max_rel_error

ALL_KINDS = ["sigmoid", "leaky_relu", "ricker", "dft", "inverse_multiquadratic", "identity"]

TOL = 1e-4


def random_net(kind, rng, output_activation=IDENTITY):
    n_hidden = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 5))] + [int(rng.integers(2, 6)) for _ in range(n_hidden)] + [
        int(rng.integers(1, 4))
    ]
    if kind == "leaky_relu":
        acts = [leaky_relu(float(rng.uniform(0.01, 0.5))) for _ in range(n_hidden)]
    else:
        acts = [Activation(kind)] * n_hidden
    return DenseNetwork(sizes, acts, output_activation, seed=rng)


def check_net(net, rng, x_scale=1.0):
    x = rng.normal(scale=x_scale, size=(1, net.input_width))
    coeff = rng.normal(size=(1, net.output_width))
    out, tape = net.forward(x)
    grad, input_grad = net.gradient(tape, coeff)
    err = max_rel_error(grad, fd_parameter_grads(net, x, coeff))
    err = max(err, max_rel_error(input_grad, fd_input_grad(net, x, coeff)))
    return err


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(6):
        assert check_net(random_net(kind, rng), rng) < TOL


def test_gradients_with_sigmoid_output_head():
    """The discriminator head backpropagates through a sigmoid output layer."""
    rng = np.random.default_rng(77)
    for kind in ("sigmoid", "leaky_relu"):
        net = random_net(kind, rng, output_activation=SIGMOID)
        assert check_net(net, rng) < TOL


def test_mixed_activation_stack():
    rng = np.random.default_rng(5150)
    net = DenseNetwork(
        [2, 4, 5, 3, 1],
        [SIGMOID, leaky_relu(0.2), Activation("inverse_multiquadratic")],
        IDENTITY,
        seed=rng,
    )
    assert check_net(net, rng) < TOL


def test_ricker_gradient_at_wavelet_scale():
    """Inputs of order 1000 reach the region where the wavelet derivative
    is O(1e-3), exercising the formula beyond the near-flat regime."""
    rng = np.random.default_rng(808)
    net = DenseNetwork([1, 3, 1], [Activation("ricker")], IDENTITY, seed=rng)
    # inflate the first layer so pre-activations land at the wavelet scale
    net.weights[0] *= 900.0
    assert check_net(net, rng, x_scale=1.5) < TOL


def test_dft_wide_layer():
    rng = np.random.default_rng(41)
    net = DenseNetwork([3, 8, 2], [DFT], IDENTITY, seed=rng)
    assert check_net(net, rng) < TOL


def test_batch_gradient_matches_finite_differences():
    """FD over a whole batch: loss sums coeff-weighted outputs of all rows."""
    rng = np.random.default_rng(19)
    net = DenseNetwork([2, 4, 2], [SIGMOID], IDENTITY, seed=rng)
    x = rng.normal(size=(5, 2))
    coeff = rng.normal(size=(5, 2))
    _, tape = net.forward(x)
    grad, _ = net.gradient(tape, coeff)
    assert max_rel_error(grad, fd_parameter_grads(net, x, coeff)) < TOL


def test_leaky_relu_exact_away_from_kink():
    """Piecewise-linear activation: gradients are exact when no pre-activation
    sits near zero, so the comparison passes a much tighter bound."""
    rng = np.random.default_rng(23)
    net = DenseNetwork([2, 6, 1], [leaky_relu(0.1)], IDENTITY, seed=rng)
    x = np.array([[1.3, -2.1]])
    pre = x @ net.weights[0].T + net.biases[0]
    assert np.abs(pre).min() > 1e-3  # seed chosen to stay off the kink
    coeff = np.ones((1, 1))
    _, tape = net.forward(x)
    grad, _ = net.gradient(tape, coeff)
    assert max_rel_error(grad, fd_parameter_grads(net, x, coeff)) < 1e-8
