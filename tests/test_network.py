import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdfgan.benchmarks import registry
from mdfgan.gan import GanMdfModel, fit_regression
from mdfgan.nn import (
    DFT,
    IDENTITY,
    SIGMOID,
    AdamState,
    DenseNetwork,
    FrozenNetworkError,
    NonFiniteError,
    Tape,
    activations,
    network,
    leaky_relu,
)
from blas_core import openblas_core


def small_net(seed=0):
    return DenseNetwork([2, 5, 3, 1], [SIGMOID, leaky_relu()], IDENTITY, seed=seed)


def test_shapes_follow_layer_sizes():
    net = small_net()
    assert [w.shape for w in net.weights] == [(5, 2), (3, 5), (1, 3)]
    assert [b.shape for b in net.biases] == [(5,), (3,), (1,)]
    assert net.input_width == 2 and net.output_width == 1
    assert len(net.weights) == 3


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
    x = np.array([[0.3, -0.7]])
    out1, _ = net.forward(x)
    out2, _ = net.forward(x)
    np.testing.assert_array_equal(out1, out2)


def test_same_seed_same_weights():
    a, b = small_net(seed=9), small_net(seed=9)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_vector_and_batch_forward_agree():
    """Each one-row batch agrees with its row of the whole batch to 1e-14,
    not bit for bit: a 1-row and a 7-row matmul may round differently in
    the last bits (on a 2-core x86_64 host with OpenBLAS, 223 of 350 rows
    over 50 such batches differed, by at most 1.1e-16)."""
    net = small_net(seed=3)
    batch = np.random.default_rng(0).normal(size=(7, 2))
    whole, _ = net.forward(batch)
    assert whole.shape == (7, 1)
    for i in range(len(batch)):
        single, _ = net.forward(batch[i : i + 1])
        assert single.shape == (1, 1)
        np.testing.assert_allclose(single, whole[i : i + 1], atol=1e-14)


def test_forward_rejects_wrong_width():
    with pytest.raises(ValueError, match="width"):
        small_net().forward(np.zeros((1, 3)))


def test_forward_input_shape_contract():
    """Only a batch of rows, shape (n, input width), is accepted: 0-d and
    1-D inputs are rejected even where their size matches, and the tape
    records the batch."""
    net = DenseNetwork([1, 4, 2], [SIGMOID], seed=1)
    for x in ([[0.5]], [[0.5], [0.1]]):
        out, tape = net.forward(x)
        assert out.shape == (len(x), 2)
        assert tape.inputs.shape == (len(x), 1)
    for bad in (0.5, np.float64(0.5), [0.5], np.zeros(1)):
        with pytest.raises(ValueError, match="width"):
            net.forward(bad)
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
    out, tape = net.forward(np.array([[0.1, 0.2]]))
    state = AdamState(net.params)
    grads, _ = net.gradient(tape, np.ones_like(out))
    net.apply_adam(grads, state, 0.01)
    with pytest.raises(ValueError, match="stale"):
        net.gradient(tape, np.ones_like(out))


def test_gradient_rejects_wrong_upstream_shape():
    net = small_net()
    _, tape = net.forward(np.array([[0.1, 0.2]]))
    for bad in (np.ones(4), np.ones(1), np.ones((1, 4))):
        with pytest.raises(ValueError, match="upstream"):
            net.gradient(tape, bad)


def test_gradient_sums_over_batch():
    net = small_net(seed=8)
    batch = np.random.default_rng(1).normal(size=(4, 2))
    up = np.ones((4, 1))
    _, tape = net.forward(batch)
    grad, _ = net.gradient(tape, up)
    total = np.zeros_like(net.params)
    for i in range(len(batch)):
        _, t = net.forward(batch[i : i + 1])
        g, _ = net.gradient(t, np.ones((1, 1)))
        total = total + g
    np.testing.assert_allclose(grad, total, atol=1e-12)


def test_freeze_blocks_updates_but_not_evaluation():
    net = small_net()
    net.freeze()
    out, tape = net.forward(np.array([[0.5, 0.5]]))
    grads, _ = net.gradient(tape, np.ones_like(out))
    with pytest.raises(FrozenNetworkError):
        net.apply_adam(grads, AdamState(net.params), 0.01)
    np.testing.assert_array_equal(net.forward(np.array([[0.5, 0.5]]))[0], out)


def test_a_frozen_network_refuses_load_params():
    """load_params overwrote a frozen network. It now raises apply_adam's
    error before it writes anything, so a tape recorded before stays valid."""
    net = small_net(seed=4)
    net.freeze()
    before = net.checksum()
    out, tape = net.forward(np.array([[0.5, 0.5]]))
    with pytest.raises(FrozenNetworkError, match="network is frozen; parameter updates are forbidden"):
        net.load_params(np.zeros_like(net.params))
    assert net.checksum() == before
    net.gradient(tape, np.ones_like(out))


def test_checksum_tracks_parameters():
    net = small_net(seed=4)
    before = net.checksum()
    assert before == net.checksum()
    out, tape = net.forward(np.array([[1.0, -1.0]]))
    grads, _ = net.gradient(tape, np.ones_like(out))
    net.apply_adam(grads, AdamState(net.params), 0.05)
    assert net.checksum() != before


def test_copy_is_independent():
    net = small_net(seed=6)
    dup = copy.deepcopy(net)
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]
    assert net.checksum() != dup.checksum()


def test_copy_preserves_frozen_flag():
    net = small_net()
    net.freeze()
    assert copy.deepcopy(net).frozen


def test_serialization_round_trip_is_exact():
    """A parameter vector saved as a JSON list and loaded into a network of
    the same layer sizes gives the same bits."""
    net = small_net(seed=13)
    again = small_net(seed=14)
    again.load_params(json.loads(json.dumps(net.params.tolist())))
    assert again.checksum() == net.checksum()
    x = np.array([[0.2, 0.9]])
    np.testing.assert_array_equal(again.forward(x)[0], net.forward(x)[0])


def test_load_params_rejects_missing_layers():
    """A params list without the last layer's weight and bias is too short."""
    net = small_net()
    with pytest.raises(ValueError, match=r"^expected 37 params for layer_sizes \[2, 5, 3, 1\]$"):
        net.load_params(net.params.tolist()[: -(3 + 1)])


def test_load_params_rejects_mismatched_arrays():
    """A params list of another network's layer sizes is too long."""
    other = DenseNetwork([2, 6, 3, 1], [SIGMOID, SIGMOID], seed=0)
    with pytest.raises(ValueError, match="expected 37 params"):
        small_net().load_params(other.params.tolist())


def test_load_params_rejects_nested_per_layer_lists():
    """Only the flat vector is read: the right numbers in any other shape,
    such as per-layer weights and biases, are rejected, and the network
    keeps its parameters."""
    net = small_net()
    before = net.checksum()
    with pytest.raises(ValueError, match="expected 37 params"):
        net.load_params(net.params.reshape(1, -1))
    assert net.checksum() == before


def test_load_params_stales_the_networks_tapes():
    net = small_net(seed=4)
    out, tape = net.forward(np.array([[0.1, 0.2]]))
    net.load_params(small_net(seed=5).params)
    with pytest.raises(ValueError, match="stale tape"):
        net.gradient(tape, np.ones_like(out))


def test_apply_adam_bumps_version():
    net = small_net()
    v0 = net._version
    out, tape = net.forward(np.array([[0.0, 0.0]]))
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


def test_copy_and_load_params_get_their_own_vector():
    net = small_net(seed=7)
    loaded = small_net(seed=8)
    loaded.load_params(net.params)
    for dup in (copy.deepcopy(net), loaded):
        np.testing.assert_array_equal(dup.params, net.params)
        assert not np.shares_memory(dup.params, net.params)
        assert all(np.shares_memory(w, dup.params) for w in dup.weights)


def test_pickle_round_trip_keeps_one_parameter_vector():
    """The weight and bias views of an unpickled network must be views into
    its one vector, not separate arrays."""
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


# -- the gradient scratch vector -------------------------------------------------


def test_gradient_results_never_alias():
    """Each call hands out its own vector, so a first result survives a
    second call, and g_real + g_fake adds two distinct gradients."""
    net = small_net(seed=5)
    out, tape = net.forward(np.array([[0.3, -0.2], [0.1, 0.4]]))
    first, _ = net.gradient(tape, np.ones_like(out))
    kept = first.copy()
    second, _ = net.gradient(tape, -2.0 * np.ones_like(out))
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(second, -2.0 * kept)
    assert not np.shares_memory(first, second)
    assert not any(np.shares_memory(first, view) for view in (*net.weights, *net.biases))


def test_copies_and_pickles_carry_only_the_parameters():
    """A copy, a pickle or a deepcopy carries the parameter vector and no
    other array; its weight and bias views alias its own vector."""
    net, x = small_net(seed=7), np.array([[0.2, 0.9]])
    out, tape = net.forward(x)
    want, _ = net.gradient(tape, np.ones_like(out))
    state = vars(net)
    assert [k for k, v in state.items() if isinstance(v, np.ndarray)] == ["params"]
    assert not {"weights", "biases"} & set(state)
    for dup in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert _same_bits(dup.params, net.params) and not np.shares_memory(dup.params, net.params)
        assert all(np.shares_memory(view, dup.params) for view in (*dup.weights, *dup.biases))
        out, tape = dup.forward(x)
        assert _same_bits(dup.gradient(tape, np.ones_like(out))[0], want)


def test_cached_block_is_unchanged_when_its_copy_trains():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(12, 2)), rng.normal(size=(12, 1))
    cached = small_net(seed=11)
    fit_regression(cached, x, y, 0.01, 3, 4, rng)
    cached.freeze()
    before = cached.checksum()
    dup = copy.deepcopy(cached)
    dup.frozen = False
    fit_regression(dup, x, y, 0.01, 3, 4, rng)
    assert dup.checksum() != before
    assert cached.checksum() == before


@pytest.mark.parametrize("seed", range(4))
def test_parameter_gradient_does_not_depend_on_the_input_gradient(seed):
    """Skipping the first layer's input product leaves the parameter
    gradient bit-identical, for one row or a batch, and returns None in
    place of the input gradient."""
    rng = np.random.default_rng(seed)
    net = DenseNetwork([3, 4, 4, 2], [SIGMOID, DFT], leaky_relu(0.2), seed=seed)
    for x in (rng.normal(size=(1, 3)), rng.normal(size=(5, 3))):
        out, tape = net.forward(x)
        upstream = rng.normal(size=out.shape)
        grad, into = net.gradient(tape, upstream)
        lean, none = net.gradient(tape, upstream, input_grad=False)
        assert np.array_equal(grad, lean)
        assert into.shape == np.shape(x) and none is None


# -- the np.dot kernels and reusable tapes -----------------------------------------


def _reference_apply(act, z):
    if act.kind == "identity":
        return z.copy()
    if act.kind == "sigmoid":
        return 0.5 * (1.0 + np.tanh(z * 0.5))
    if act.kind == "leaky_relu":
        return np.maximum(z * act.alpha, z)
    return activations.apply(act, z)


def _reference_backward(act, pre, post, upstream):
    if act.kind == "identity":
        return upstream.copy()
    if act.kind == "sigmoid":
        return upstream * post * (1.0 - post)
    if act.kind == "leaky_relu":
        return np.maximum(np.sign(pre), act.alpha) * upstream
    return activations.backward(act, pre, post, upstream)


def _reference_pass(net, x, upstream):
    """Output, parameter gradient and input gradient written with ``@`` and
    a fresh array for every intermediate."""
    pre, post, a = [], [], x
    for w, b, act in zip(net.weights, net.biases, net.layer_activations):
        z = a @ w.T
        z += b
        a = _reference_apply(act, z)
        pre.append(z)
        post.append(a)
    blocks, g = [], upstream
    for w, act, z, p, below in reversed(list(zip(net.weights, net.layer_activations, pre, post, [x, *post[:-1]]))):
        gz = _reference_backward(act, z, p, g)
        blocks[:0] = [(gz.T @ below).ravel(), np.add.reduce(gz, axis=0)]
        g = gz @ w
    return a, np.concatenate(blocks), g


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


REGISTRY_NETS = [
    pytest.param(pair, part, id=f"{pair.name}-{part}")
    for pair in registry()
    for part in ("lf_block", "hf_block", "discriminator")
]


@pytest.mark.parametrize("pair, part", REGISTRY_NETS)
def test_kernels_give_the_bits_of_the_reference(pair, part):
    """forward and gradient through np.dot into tape buffers give the bits of
    ``@`` on fresh arrays, on every registered architecture, for a new tape
    and for a tape refilled after it held other rows; so a numpy or BLAS
    change that breaks np.dot == @ fails here rather than moving a summary."""
    net = getattr(GanMdfModel.build(pair.d1, pair.d2, pair.default_config), part)
    rng = np.random.default_rng(net.params.size)
    for rows in (1, 2, 4, 5, 31, 32, 33, 64, 1000):
        x = rng.uniform(-2.0, 2.0, size=(rows, net.input_width))
        upstream = rng.normal(size=(rows, net.output_width))
        want_out, want_grad, want_into = _reference_pass(net, x, upstream)
        _, used = net.forward(rng.normal(size=(rows, net.input_width)))
        net.forward(rng.normal(size=(rows + 1, net.input_width)), used)  # another row count: left alone
        for tape in (None, used):
            out, got = net.forward(x, tape)
            assert got is used or tape is None
            grad, into = net.gradient(got, upstream)
            assert _same_bits(out, want_out), (rows, tape)
            assert _same_bits(grad, want_grad), (rows, tape)
            assert _same_bits(into, want_into), (rows, tape)


# the cpuinfo flag each OpenBLAS core needs; Linux names SSE3 "pni"
_CORE_FLAGS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}


def _cores_this_cpu_runs():
    try:
        with open("/proc/cpuinfo") as f:
            flags = set(next(line for line in f if line.startswith("flags")).split(":", 1)[1].split())
    except (OSError, StopIteration):
        return []
    return [core for core, flag in _CORE_FLAGS.items() if flag in flags]


@pytest.mark.skipif(sys.platform != "linux", reason="reads the CPU flags from /proc/cpuinfo")
@pytest.mark.parametrize("core", _cores_this_cpu_runs())
def test_every_core_this_cpu_runs_gives_the_pinned_bits(core, child_env):
    """The digest pins and the kernel-bit tests pass on each OpenBLAS core
    this CPU can run, each in a child pytest that OPENBLAS_CORETYPE points
    at that core; this process's own core is checked by this run."""
    if {"Prescott": "Katmai"}.get(core, core) == openblas_core():  # its Prescott kernels are named Katmai
        pytest.skip(f"this process runs {core}")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "digest_is_pinned or kernels_give_the_bits_of_the_reference",
         "tests/test_gan.py", "tests/test_experiments.py", "tests/test_network.py"],
        cwd=Path(__file__).parents[1], env={**child_env, "OPENBLAS_CORETYPE": core},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-1000:]


def test_a_tape_of_another_network_raises_and_is_left_alone():
    net, twin = small_net(seed=1), small_net(seed=1)
    x = np.array([[0.3, -0.2], [0.1, 0.4]])
    out, tape = net.forward(x)
    kept = [a.copy() for a in (*tape.pre, *tape.post)]
    for other, rows in ((twin, x), (twin, x[:1]), (copy.deepcopy(net), x)):
        with pytest.raises(ValueError, match="tape belongs to another network"):
            other.forward(rows, tape)
        assert all(_same_bits(a, b) for a, b in zip((*tape.pre, *tape.post), kept))
    grad, _ = net.gradient(tape, np.ones_like(out))  # still valid for its own pass
    assert _same_bits(grad, net.gradient(net.forward(x)[1], np.ones((2, 1)))[0])


def test_one_tape_serves_every_row_count():
    """A tape alternating between 32-row and 4-row batches, with an Adam
    step after each, gives the bits of fresh tapes; each row count keeps
    its own buffers, and a pass at one leaves those of the other alone."""
    rng = np.random.default_rng(4)
    net = DenseNetwork([3, 4, 4, 2], [SIGMOID, leaky_relu(0.2)], IDENTITY, seed=4)
    tape, state, held = Tape(net), AdamState(net.params), {}
    for rows in (32, 4, 32, 4, 4, 32):
        x, upstream = rng.normal(size=(rows, 3)), rng.normal(size=(rows, 2))
        out, used = net.forward(x, tape)
        grad, into = net.gradient(tape, upstream)
        fresh_out, fresh = net.forward(x)
        fresh_grad, fresh_into = net.gradient(fresh, upstream)
        assert used is tape and out is tape.post[-1]
        assert _same_bits(out, fresh_out) and _same_bits(grad, fresh_grad) and _same_bits(into, fresh_into)
        buffers = [*tape.pre, *tape.post]
        for other, (theirs, kept) in held.items():
            if other == rows:
                assert all(a is b for a, b in zip(buffers, theirs))
            else:
                assert all(_same_bits(a, b) for a, b in zip(theirs, kept))
        held[rows] = buffers, [a.copy() for a in buffers]
        net.apply_adam(grad, state, 0.01)


def test_fit_regression_builds_one_tape(monkeypatch):
    """100 rows at a cap of 32 give batches of 32 and of 4 rows, and both
    fill the same tape."""
    built = []
    init = network.Tape.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(network.Tape, "__init__", counted)
    rng = np.random.default_rng(0)
    fit_regression(small_net(), rng.normal(size=(100, 2)), rng.normal(size=(100, 1)), 0.01, 2, 32, rng)
    assert len(built) == 1


@pytest.mark.parametrize("seed", range(3))
def test_a_refilled_tape_matches_a_fresh_one(seed):
    rng = np.random.default_rng(seed)
    net = DenseNetwork([3, 4, 4, 2], [SIGMOID, leaky_relu(0.2)], IDENTITY, seed=seed)
    _, tape = net.forward(rng.normal(size=(5, 3)))
    x, upstream = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    out, refilled = net.forward(x, tape)
    assert refilled is tape and out is tape.post[-1]
    grad, into = net.gradient(tape, upstream)
    fresh_out, fresh = net.forward(x)
    fresh_grad, fresh_into = net.gradient(fresh, upstream)
    assert _same_bits(out, fresh_out) and _same_bits(grad, fresh_grad) and _same_bits(into, fresh_into)


def test_a_received_input_gradient_is_never_overwritten():
    """It survives later passes on the same tape, at its row count and at
    another, and shares no memory with the tape."""
    net, rng = small_net(seed=9), np.random.default_rng(9)
    out, tape = net.forward(rng.normal(size=(3, 2)))
    _, first = net.gradient(tape, np.ones_like(out))
    kept = first.copy()
    net.gradient(tape, -np.ones_like(out))
    for rows in (3, 1, 3):
        out, _ = net.forward(rng.normal(size=(rows, 2)), tape)
        _, later = net.gradient(tape, np.ones_like(out))
        assert not np.shares_memory(first, later)
    assert _same_bits(first, kept)
    assert not any(np.shares_memory(first, a) for a in (*tape.pre, *tape.post, tape.grad))


def test_a_refill_that_raises_leaves_the_tape_stale():
    net = small_net(seed=2)
    out, tape = net.forward(np.array([[0.1, 0.2]]))
    with pytest.raises(NonFiniteError):
        net.forward(np.array([[np.nan, 0.2]]), tape)
    with pytest.raises(ValueError, match="stale"):
        net.gradient(tape, np.ones_like(out))
