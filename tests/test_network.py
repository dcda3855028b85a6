import json
import pickle

import numpy as np
import pytest

from mdfgan.nn import (
    IDENTITY,
    SIGMOID,
    AdamState,
    DenseNetwork,
    FrozenNetworkError,
    leaky_relu,
)


def small_net(seed=0):
    return DenseNetwork([2, 5, 3, 1], [SIGMOID, leaky_relu()], IDENTITY, seed=seed)


def test_shapes_follow_layer_sizes():
    net = small_net()
    assert [w.shape for w in net.weights] == [(5, 2), (3, 5), (1, 3)]
    assert [b.shape for b in net.biases] == [(5,), (3,), (1,)]
    assert net.input_width == 2 and net.output_width == 1
    assert net.n_layers == 3


def test_biases_start_at_zero():
    net = small_net()
    for b in net.biases:
        assert (b == 0.0).all()


def test_weights_within_glorot_limits():
    net = DenseNetwork([10, 20, 4], [SIGMOID], seed=1)
    for w, fan_in, fan_out in zip(net.weights, [10, 20], [20, 4]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert (np.abs(w) <= limit).all()
        # draws actually spread out instead of collapsing to zero
        assert np.abs(w).max() > 0.5 * limit


def test_forward_is_deterministic():
    net = small_net(seed=42)
    x = np.array([0.3, -0.7])
    out1, _ = net.forward(x)
    out2, _ = net.forward(x)
    np.testing.assert_array_equal(out1, out2)


def test_same_seed_same_weights():
    a, b = small_net(seed=9), small_net(seed=9)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_vector_and_batch_forward_agree():
    net = small_net(seed=3)
    batch = np.random.default_rng(0).normal(size=(7, 2))
    whole, _ = net.forward(batch)
    assert whole.shape == (7, 1)
    for i, row in enumerate(batch):
        single, _ = net.forward(row)
        assert single.shape == (1,)
        np.testing.assert_allclose(single, whole[i], atol=1e-14)


def test_forward_rejects_wrong_width():
    with pytest.raises(ValueError, match="width"):
        small_net().forward(np.zeros(3))


def test_forward_input_shape_contract():
    """0-d input to a width-1 net gives a (1, 1) batch; a vector gives a
    vector; a batch gives a batch; the tape always records a 2-D batch."""
    net = DenseNetwork([1, 4, 2], [SIGMOID], seed=1)
    for x, shape in ((0.5, (1, 2)), (np.float64(0.5), (1, 2)), ([0.5], (2,)), ([[0.5], [0.1]], (2, 2))):
        out, tape = net.forward(x)
        assert out.shape == shape
        assert tape.inputs.ndim == 2 and tape.inputs.shape[1] == 1
        assert tape.single == (np.ndim(x) == 1)
    wide = DenseNetwork([2, 4, 1], [SIGMOID], seed=1)
    for bad in (0.5, [0.5], [[0.5]], np.zeros((3, 2, 2)), np.zeros((1, 1, 1))):
        with pytest.raises(ValueError, match="width"):
            wide.forward(bad)
    with pytest.raises(ValueError, match="width"):
        net.forward(np.zeros((2, 1, 1)))


def test_validation_rejects_bad_sizes():
    with pytest.raises(ValueError, match="positive"):
        DenseNetwork([2, 0, 1], [SIGMOID])
    with pytest.raises(ValueError, match="at least"):
        DenseNetwork([4], [])
    with pytest.raises(ValueError, match="activations"):
        DenseNetwork([2, 3, 1], [SIGMOID, SIGMOID])


def test_gradient_rejects_stale_tape():
    """A parameter update invalidates tapes recorded before it."""
    net = small_net()
    out, tape = net.forward(np.array([0.1, 0.2]))
    state = AdamState(net.params)
    grads, _ = net.gradient(tape, np.ones_like(out))
    net.apply_adam(grads, state, 0.01)
    with pytest.raises(ValueError, match="stale"):
        net.gradient(tape, np.ones_like(out))


def test_gradient_rejects_wrong_upstream_shape():
    net = small_net()
    _, tape = net.forward(np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match="upstream"):
        net.gradient(tape, np.ones(4))


def test_gradient_sums_over_batch():
    net = small_net(seed=8)
    batch = np.random.default_rng(1).normal(size=(4, 2))
    up = np.ones((4, 1))
    _, tape = net.forward(batch)
    grad, _ = net.gradient(tape, up)
    total = np.zeros_like(net.params)
    for row in batch:
        _, t = net.forward(row)
        g, _ = net.gradient(t, np.ones(1))
        total = total + g
    np.testing.assert_allclose(grad, total, atol=1e-12)


def test_freeze_blocks_updates_but_not_evaluation():
    net = small_net()
    net.freeze()
    out, tape = net.forward(np.array([0.5, 0.5]))
    grads, _ = net.gradient(tape, np.ones_like(out))
    with pytest.raises(FrozenNetworkError):
        net.apply_adam(grads, AdamState(net.params), 0.01)
    np.testing.assert_array_equal(net.forward(np.array([0.5, 0.5]))[0], out)


def test_checksum_tracks_parameters():
    net = small_net(seed=4)
    before = net.checksum()
    assert before == net.checksum()
    out, tape = net.forward(np.array([1.0, -1.0]))
    grads, _ = net.gradient(tape, np.ones_like(out))
    net.apply_adam(grads, AdamState(net.params), 0.05)
    assert net.checksum() != before


def test_copy_is_independent():
    net = small_net(seed=6)
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]
    assert net.checksum() != dup.checksum()


def test_copy_preserves_frozen_flag():
    net = small_net()
    net.freeze()
    assert net.copy().frozen


def test_serialization_round_trip_is_exact():
    net = small_net(seed=13)
    doc = json.loads(json.dumps(net.to_dict()))
    again = DenseNetwork.from_dict(doc)
    assert again.checksum() == net.checksum()
    x = np.array([0.2, 0.9])
    np.testing.assert_array_equal(again.forward(x)[0], net.forward(x)[0])


def test_from_dict_rejects_bad_version():
    doc = small_net().to_dict()
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        DenseNetwork.from_dict(doc)


def test_from_dict_rejects_missing_layers():
    doc = small_net().to_dict()
    del doc["weights"][-1], doc["biases"][-1]
    with pytest.raises(ValueError, match="weight and bias arrays"):
        DenseNetwork.from_dict(doc)


def test_from_dict_rejects_mismatched_arrays():
    doc = small_net().to_dict()
    doc["weights"][0] = [[0.0, 0.0]]  # wrong row count for layer 0
    with pytest.raises(ValueError, match="layer 0"):
        DenseNetwork.from_dict(doc)


def test_apply_adam_bumps_version():
    net = small_net()
    v0 = net._version
    out, tape = net.forward(np.array([0.0, 0.0]))
    grads, _ = net.gradient(tape, np.ones_like(out))
    net.apply_adam(grads, AdamState(net.params), 0.0)
    assert net._version == v0 + 1


# -- the flat parameter layout -------------------------------------------------


def test_weights_and_biases_are_views_in_layout_order():
    """The parameter vector is w0, b0, w1, b1, ... with each weight matrix
    row-major, and the per-layer arrays are views into it."""
    net = small_net(seed=2)
    expected = np.concatenate([a.ravel() for pair in zip(net.weights, net.biases) for a in pair])
    np.testing.assert_array_equal(net.params, expected)
    assert net.params.size == 5 * 2 + 5 + 3 * 5 + 3 + 1 * 3 + 1
    for arr in (*net.weights, *net.biases):
        assert np.shares_memory(arr, net.params)
    net.params[:] = 0.0
    assert not any(w.any() for w in net.weights)


def test_block_names_follow_the_layout():
    net = small_net()
    names = [net.block_name(i) for i in range(net.params.size)]
    assert names[0] == names[9] == "layer0.weight"
    assert names[10] == names[14] == "layer0.bias"
    assert names[15] == "layer1.weight" and names[30] == "layer1.bias"
    assert names[33] == "layer2.weight" and names[-1] == "layer2.bias"
    with pytest.raises(IndexError):
        net.block_name(net.params.size)


def test_gradient_is_one_vector_in_the_parameter_layout():
    net = small_net(seed=5)
    out, tape = net.forward(np.array([[0.3, -0.2], [0.1, 0.4]]))
    grad, _ = net.gradient(tape, np.ones_like(out))
    assert grad.shape == net.params.shape
    # the last block is the output bias, whose gradient is the summed upstream
    assert grad[-1] == 2.0


def test_copy_and_from_dict_get_their_own_vector():
    net = small_net(seed=7)
    for dup in (net.copy(), DenseNetwork.from_dict(net.to_dict())):
        np.testing.assert_array_equal(dup.params, net.params)
        assert not np.shares_memory(dup.params, net.params)
        assert all(np.shares_memory(w, dup.params) for w in dup.weights)


def test_pickle_round_trip_keeps_one_parameter_vector():
    """Process pools ship networks by pickle; the weight and bias views must
    come back as views into the one vector, not as separate arrays."""
    net = pickle.loads(pickle.dumps(small_net(seed=3)))
    assert all(np.shares_memory(view, net.params) for view in (*net.weights, *net.biases))
    x = np.array([[0.3, -0.2]])
    assert net.forward(x)[0][0, 0] != 0.0
    net.params[:] = 0.0
    np.testing.assert_array_equal(net.forward(x)[0], [[0.0]])


def test_checksum_is_pinned():
    """The checksum hashes the parameter bytes in layout order; frozen-LF
    checks and saved checksums depend on this exact value."""
    net = DenseNetwork([1, 32, 32, 1], [SIGMOID, SIGMOID], seed=0)
    assert net.checksum() == "6f4076f84b8d25a8c1f5222381f262fae32db4003f154001f53e3f6ee950868d"
