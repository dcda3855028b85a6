import hashlib

import numpy as np
import pytest

from mdfgan.nn import activations
from mdfgan.nn.activations import (
    DFT,
    IDENTITY,
    INVERSE_MULTIQUADRATIC,
    KINDS,
    RICKER,
    SIGMOID,
    Activation,
    apply,
    backward,
    leaky_relu,
    parse_activation,
)
from oracles import masked_leaky_relu, masked_sigmoid


def test_sigmoid_at_zero():
    assert apply(SIGMOID, np.array([0.0]))[0] == 0.5


def test_leaky_relu_branches():
    act = leaky_relu(0.01)
    out = apply(act, np.array([-1.0, 2.0]))
    np.testing.assert_allclose(out, [-0.01, 2.0])


def test_leaky_relu_at_zero_uses_alpha_branch():
    # the negative branch covers the kink point itself
    act = leaky_relu(0.3)
    grad = backward(act, np.array([0.0]), apply(act, np.array([0.0])), np.array([1.0]))
    assert grad[0] == 0.3


def test_ricker_at_zero():
    assert apply(RICKER, np.array([0.0]))[0] == 1.0


def test_inverse_multiquadratic_at_zero():
    assert apply(INVERSE_MULTIQUADRATIC, np.array([0.0]))[0] == 1.0


def test_dft_of_constant_vector():
    c = 2.5
    out = apply(DFT, np.full(4, c))
    np.testing.assert_allclose(out, [4 * c, 0.0, 0.0, 0.0], atol=1e-12)


def test_dft_is_linear():
    rng = np.random.default_rng(3)
    u, w = rng.normal(size=7), rng.normal(size=7)
    a, b = 1.7, -0.4
    lhs = apply(DFT, a * u + b * w)
    rhs = a * apply(DFT, u) + b * apply(DFT, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_dft_matches_numpy_fft_real_part():
    rng = np.random.default_rng(11)
    v = rng.normal(size=9)
    np.testing.assert_allclose(apply(DFT, v), np.fft.fft(v).real, atol=1e-10)


def test_sigmoid_output_range():
    # strictly inside (0,1) wherever double precision can represent that
    out = apply(SIGMOID, np.linspace(-30, 30, 401))
    assert ((out > 0) & (out < 1)).all()
    # far tails saturate to the closed interval without leaving it
    tails = apply(SIGMOID, np.array([-800.0, 800.0]))
    np.testing.assert_array_equal(tails, [0.0, 1.0])


def _sigmoid_grid():
    """Signed zeros, tiny inputs, the points where exp saturates or
    underflows, and random normals at two scales."""
    edges = np.array([0.0, 1e-300, 1e-20, 36.0, 709.0, 745.0, 800.0])
    rng = np.random.default_rng(17)
    return np.concatenate([edges, -edges, *(rng.normal(scale=s, size=20_000) for s in (1.0, 30.0))])


def test_sigmoid_is_within_2_52_of_the_masked_reference():
    grid = _sigmoid_grid()
    for v in (grid, grid.reshape(6, -1)):
        out = apply(SIGMOID, v)
        assert out.shape == v.shape
        assert np.abs(out - masked_sigmoid(v)).max() <= 2.0**-52


def test_sigmoid_bits_are_pinned():
    """SHA-256 of the sigmoid on the grid, as a vector and as a batch: every
    trained number depends on these bits. Recorded for 0.5*(1+tanh(v/2))
    with numpy 2.4.6 on x86_64 with AVX-512."""
    grid = _sigmoid_grid()
    expected = 0.5 * (1.0 + np.tanh(0.5 * grid))
    for v in (grid, grid.reshape(6, -1)):
        out = apply(SIGMOID, v)
        assert out.tobytes() == expected.tobytes()
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "8858574e8eff8d8b14adacf01e49aa03c07a2efc2d4945a827cb44e2630e33d1"
        )


def test_sigmoid_extreme_inputs_do_not_overflow():
    out = apply(SIGMOID, np.array([-1e4, 1e4]))
    assert np.isfinite(out).all()


def test_inverse_multiquadratic_range():
    out = apply(INVERSE_MULTIQUADRATIC, np.linspace(-50, 50, 101))
    assert ((out > 0) & (out <= 1)).all()


def test_leaky_relu_monotone():
    v = np.linspace(-5, 5, 201)
    out = apply(leaky_relu(0.5), v)
    assert (np.diff(out) >= 0).all()


def _leaky_relu_grid():
    """Signed zeros and the smallest subnormals, uniform [-40, 40], and
    log-uniform magnitudes from 1e-320 to 1e307 of either sign, so that
    alpha*v stays finite for every alpha tested."""
    rng = np.random.default_rng(23)
    magnitudes = 10.0 ** rng.uniform(-320.0, 307.0, size=20_000)
    return np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324],
        rng.uniform(-40.0, 40.0, size=20_000),
        magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.size),
    ])


@pytest.mark.parametrize("alpha", [0.01, 0.2, 1.0, 3.0])
def test_leaky_relu_is_bit_identical_to_the_masked_form(alpha):
    """Forward and backward against the np.where oracle, compared as int64
    bit patterns (so -0.0 differs from 0.0), as a vector and as a batch;
    neither call writes into its arguments."""
    act = leaky_relu(alpha)
    grid = _leaky_relu_grid()
    up = np.random.default_rng(29).normal(size=grid.size) * 10.0 ** np.linspace(-8.0, 8.0, grid.size)
    want, slope = masked_leaky_relu(grid, alpha)
    want_grad = up * slope
    for shape in (grid.shape, (4, -1)):
        v, u = grid.reshape(shape).copy(), up.reshape(shape).copy()
        out = apply(act, v)
        grad = backward(act, v, out, u)
        assert np.array_equal(out.view(np.int64), want.reshape(shape).view(np.int64))
        assert np.array_equal(grad.view(np.int64), want_grad.reshape(shape).view(np.int64))
        assert v.tobytes() == grid.tobytes() and u.tobytes() == up.tobytes()


def test_ricker_near_one_on_small_inputs():
    """With the printed 1/1000 scaling the wavelet barely moves on O(1) input."""
    out = apply(RICKER, np.linspace(-3, 3, 25))
    np.testing.assert_allclose(out, 1.0, atol=1e-3)


def test_ricker_shape_at_wavelet_scale():
    # at |x| ~ 1000/pi the squared wavelet actually dips
    out = apply(RICKER, np.array([1000.0 / np.pi]))
    u2 = 1.0
    expected = (1.0 - 2.0 * u2 * np.exp(-u2)) ** 2
    np.testing.assert_allclose(out, [expected])


def test_non_finite_input_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            apply(SIGMOID, np.array([bad]))


def test_dft_empty_vector_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        apply(DFT, np.array([]))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown activation"):
        Activation("softplus")


def test_leaky_relu_alpha_must_be_positive():
    with pytest.raises(ValueError, match="slope"):
        Activation("leaky_relu", alpha=0.0)


def test_parse_activation_normalizes_case():
    assert parse_activation(" SIGMOID ").kind == "sigmoid"
    assert parse_activation("leaky_relu", 0.2).alpha == 0.2


def test_serialization_round_trip():
    for act in (IDENTITY, SIGMOID, RICKER, DFT, INVERSE_MULTIQUADRATIC, leaky_relu(0.07)):
        again = Activation.from_dict(act.to_dict())
        assert again == act


def test_kinds_cover_all_constants():
    assert set(KINDS) == {
        "identity",
        "sigmoid",
        "leaky_relu",
        "ricker",
        "dft",
        "inverse_multiquadratic",
    }


def test_apply_works_on_batches():
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(6, 4))
    for act in (SIGMOID, leaky_relu(), RICKER, INVERSE_MULTIQUADRATIC, DFT, IDENTITY):
        whole = apply(act, batch)
        rows = np.stack([apply(act, row) for row in batch])
        np.testing.assert_allclose(whole, rows, atol=1e-14)


def test_identity_backward_passes_upstream_through():
    up = np.array([[1.0, -2.0]])
    out = backward(IDENTITY, np.array([[3.0, 4.0]]), np.array([[3.0, 4.0]]), up)
    np.testing.assert_array_equal(out, up)
    assert out is not up


def test_dft_matrix_is_cached_and_readonly():
    m1 = activations._dft_real_matrix(5)
    m2 = activations._dft_real_matrix(5)
    assert m1 is m2
    assert not m1.flags.writeable
