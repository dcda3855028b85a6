import copy
import pickle

import numpy as np
import pytest

from mdfgan.nn import AdamState, DenseNetwork, NonFiniteError, SIGMOID, adam_step
from oracles import fresh_adam_mem, scripted_adam_step


def test_zero_gradient_leaves_params_unchanged():
    p = np.array([1.0, -2.0, 3.0])
    state = AdamState(p)
    adam_step(p, np.zeros(3), state, lr=0.1)
    np.testing.assert_array_equal(p, [1.0, -2.0, 3.0])
    assert state.t == 1


def test_first_step_magnitude_matches_hand_computation():
    """Scalar g=1, lr=0.001: the bias-corrected first step is lr/(1+eps-ish),
    about -0.000999999995."""
    p = np.array([0.0])
    adam_step(p, np.ones(1), AdamState(p), lr=0.001)
    assert abs(p[0] - (-0.000999999995)) < 1e-11


def test_two_steps_match_scripted_trace():
    rng = np.random.default_rng(7)
    p = rng.normal(size=(3, 2))
    q = p.copy()
    g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

    state = AdamState(p)
    adam_step(p, g1, state, lr=0.05)
    adam_step(p, g2, state, lr=0.05)

    mem = fresh_adam_mem(q)
    scripted_adam_step(q, g1, mem, lr=0.05)
    scripted_adam_step(q, g2, mem, lr=0.05)

    np.testing.assert_allclose(p, q, atol=1e-12)


def test_constant_gradient_long_trace():
    p = np.array([1.0])
    q = p.copy()
    g = np.array([0.3])
    state = AdamState(p)
    mem = fresh_adam_mem(q)
    for _ in range(50):
        adam_step(p, g, state, lr=0.01)
        scripted_adam_step(q, g, mem, lr=0.01)
    np.testing.assert_allclose(p, q, atol=1e-12)


def test_long_trace_matches_scripted_steps_exactly():
    """The library update and the textbook recurrences round identically:
    300 steps with fresh gradients, learning rates including zero."""
    rng = np.random.default_rng(23)
    p = rng.normal(size=257)
    q = p.copy()
    state = AdamState(p)
    mem = fresh_adam_mem(q)
    for step in range(300):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape)
        lr = 0.0 if step % 50 == 7 else 0.01
        adam_step(p, g, state, lr=lr)
        scripted_adam_step(q, g, mem, lr=lr)
        assert np.array_equal(p, q) and np.array_equal(state.m, mem["m"]) and np.array_equal(state.v, mem["v"])
    assert state.t == mem["t"] == 300


def test_non_finite_gradient_names_the_block():
    """A [2, 3, 1] net lays out layer0.weight (6), layer0.bias (3),
    layer1.weight (3), layer1.bias (1); index 10 sits in layer1.weight. The
    failed step leaves the parameters and the optimizer state untouched."""
    net = DenseNetwork([2, 3, 1], [SIGMOID], seed=0)
    before = net.params.copy()
    state = AdamState(net.params)
    grad = np.zeros_like(net.params)
    grad[10] = np.nan
    with pytest.raises(NonFiniteError, match=r"layer1\.weight"):
        net.apply_adam(grad, state, lr=0.1)
    with pytest.raises(NonFiniteError, match="index 10"):
        adam_step(net.params, grad, state, lr=0.1)
    np.testing.assert_array_equal(net.params, before)
    assert state.t == 0 and not state.m.any() and not state.v.any()


def test_shape_mismatch_rejected():
    p = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shape"):
        adam_step(p, np.zeros(3), AdamState(p), lr=0.1)


def test_state_size_mismatch_rejected():
    p = np.zeros(2)
    with pytest.raises(ValueError, match="optimizer state"):
        adam_step(p, np.zeros(2), AdamState(np.zeros(3)), lr=0.1)


def test_negative_learning_rate_rejected():
    p = np.zeros(2)
    with pytest.raises(ValueError, match="non-negative"):
        adam_step(p, np.ones(2), AdamState(p), lr=-0.1)


def test_zero_learning_rate_advances_state_only():
    """lr=0 keeps parameters bitwise identical but still feeds the moment
    accumulators, which matters when a later step uses a real rate."""
    p = np.array([1.5, -0.5])
    before = p.copy()
    state = AdamState(p)
    adam_step(p, np.array([2.0, -1.0]), state, lr=0.0)
    np.testing.assert_array_equal(p, before)
    assert state.t == 1
    assert state.m[0] != 0.0


def test_state_matches_parameter_layout():
    net = DenseNetwork([2, 3, 1], [SIGMOID], seed=0)
    state = AdamState(net.params)
    assert state.m.shape == state.v.shape == net.params.shape == (13,)
    assert not state.m.any() and not state.v.any()


def test_state_updates_in_place_across_blocks():
    """One step on the parameter vector moves every weight and bias view."""
    net = DenseNetwork([2, 2, 1], [SIGMOID], seed=0)
    weights = [w.copy() for w in net.weights]
    state = AdamState(net.params)
    net.apply_adam(np.ones_like(net.params), state, lr=0.1)
    net.apply_adam(np.ones_like(net.params), state, lr=0.1)
    assert state.t == 2
    for w, w0 in zip(net.weights, weights):
        assert (w < w0).all()
    for b in net.biases:
        assert (b < 0.0).all()


def test_scratch_is_never_shared():
    """Each state owns its scratch, two vectors and three 0-d operands; a
    pickled or deep-copied state gets its own, so two optimizers never
    write into one buffer."""
    net = DenseNetwork([2, 3, 1], [SIGMOID], seed=0)
    state = AdamState(net.params)
    net.apply_adam(np.ones_like(net.params), state, lr=0.1)
    others = [AdamState(net.params), pickle.loads(pickle.dumps(state)), copy.deepcopy(state)]
    for other in others:
        assert not any(np.shares_memory(a, b) for a in state.scratch for b in other.scratch)
        assert not any(np.shares_memory(a, b) for a in other.scratch for b in (other.m, other.v, net.params))
    again = others[1]
    assert again.t == 1 and np.array_equal(again.m, state.m) and np.array_equal(again.v, state.v)
