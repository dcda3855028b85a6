import dataclasses

import numpy as np
import pytest

from mdfgan.benchmarks import (
    BenchmarkPair,
    borehole_hf,
    currin_hf,
    forrester_hf,
    forrester_lf,
    get,
    registry,
)
from mdfgan.experiments import nrmse
from mdfgan.gan import TrainingConfig


def test_registry_covers_the_dimension_ladder():
    pairs = {p.name: p for p in registry()}
    assert len(pairs) == len(registry())  # names unique
    dims = sorted(p.d1 for p in pairs.values())
    assert dims == [1, 1, 1, 1, 2, 6, 8, 20, 30]
    assert all(p.d2 == 1 for p in pairs.values())


def test_every_pair_is_finite_at_the_box_center():
    for pair in registry():
        center = pair.bounds.mean(axis=1)[None, :]
        assert np.isfinite(pair.evaluate_hf(center)).all(), pair.name
        assert np.isfinite(pair.evaluate_lf(center)).all(), pair.name


def test_every_pair_is_finite_on_a_random_cloud():
    rng = np.random.default_rng(0)
    for pair in registry():
        lo, hi = pair.bounds[:, 0], pair.bounds[:, 1]
        x = lo + rng.uniform(size=(64, pair.d1)) * (hi - lo)
        assert np.isfinite(pair.evaluate_hf(x)).all(), pair.name
        assert np.isfinite(pair.evaluate_lf(x)).all(), pair.name


def test_forrester_fidelities_disagree():
    grid = np.linspace(0, 1, 100)[:, None]
    pair = get("forrester1d")
    gap = np.abs(pair.evaluate_lf(grid) - pair.evaluate_hf(grid)).max()
    assert gap > 0


def test_forrester_lf_is_scaled_shifted_hf():
    grid = np.linspace(0, 1, 50)[:, None]
    t = grid[:, 0]
    expected = 0.5 * forrester_hf(grid) + 10.0 * (t - 0.5) - 5.0
    np.testing.assert_allclose(forrester_lf(grid), expected, atol=1e-12)


def test_oscillatory_pair_has_low_correlation():
    """The phase-shifted pair is the hard case: the low-fidelity signal
    carries almost no linear information about the truth."""
    pair = get("oscillatory1d")
    grid = np.linspace(0, 1, 2000)[:, None]
    y_l = pair.evaluate_lf(grid).ravel()
    y_h = pair.evaluate_hf(grid).ravel()
    corr = np.corrcoef(y_l, y_h)[0, 1]
    assert abs(corr) < 0.3


def test_nonlinear_pair_is_a_nonlinear_map_of_lf():
    pair = get("nonlinear1d")
    grid = np.linspace(0, 1, 200)[:, None]
    y_l = pair.evaluate_lf(grid).ravel()
    y_h = pair.evaluate_hf(grid).ravel()
    # same oscillation support, but squared: truth is non-positive everywhere
    assert (y_h <= 1e-12).all()
    assert y_l.max() > 0.9


def test_jump_pair_is_discontinuous():
    pair = get("jump1d")
    left = pair.evaluate_hf(np.array([[0.4999]]))
    right = pair.evaluate_hf(np.array([[0.5001]]))
    assert right - left > 9.0  # the step dominates the smooth part locally


def test_currin_handles_the_x2_edge():
    out = currin_hf(np.array([[0.3, 0.0]]))
    assert np.isfinite(out).all()


def test_borehole_scale_is_physical():
    x = np.array([[0.10, 25000.0, 89335.0, 1050.0, 89.55, 760.0, 1400.0, 10950.0]])
    out = borehole_hf(x)
    assert 10.0 < out[0] < 300.0


def test_evaluate_normalizes_shapes():
    pair = get("currin2d")
    out = pair.evaluate_hf(np.zeros((5, 2)) + 0.5)
    assert out.shape == (5, 1)
    with pytest.raises(ValueError, match=r"width 2, got shape \(2,\)"):
        pair.evaluate_hf(np.array([0.5, 0.5]))  # a single vector is not a batch of rows


def test_evaluate_rejects_wrong_width():
    with pytest.raises(ValueError, match="width"):
        get("forrester1d").evaluate_hf(np.zeros((3, 2)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_rejects_non_finite_responses():
    pair = get("borehole8d")
    bad = np.full((1, 8), -1.0)  # log of a negative ratio
    with pytest.raises(ValueError, match="non-finite"):
        pair.evaluate_hf(bad)


def test_get_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="forrester1d"):
        get("bogus")


def test_registry_returns_fresh_configs():
    """A pair's config cannot be changed in place, and a config replaced
    from it leaves the registry's config as it was."""
    pair = get("forrester1d")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.default_config.epochs_lf = 1
    assert dataclasses.replace(pair.default_config, epochs_lf=1).epochs_lf == 1
    assert pair.default_config == get("forrester1d").default_config == TrainingConfig()


def test_forrester_default_config_matches_documented_protocol():
    cfg = get("forrester1d").default_config
    assert cfg == TrainingConfig()
    assert (cfg.lr_lf, cfg.lr_disc, cfg.lr_gen, cfg.lr_sup) == (0.03, 0.002, 0.001, 0.05)
    assert (cfg.epochs_lf, cfg.epochs_hf) == (4000, 350)
    assert cfg.hidden_activations == ("sigmoid",)
    assert cfg.normalizer == "none"


def test_custom_pair_construction():
    pair = BenchmarkPair(
        "ident", 1, 1, np.array([[0.0, 1.0]]),
        lambda x: x[:, 0], lambda x: x[:, 0], TrainingConfig(),
    )
    x = np.array([[0.25], [0.75]])
    np.testing.assert_array_equal(pair.evaluate_lf(x), pair.evaluate_hf(x))


# -- NRMSE ---------------------------------------------------------------------


def test_nrmse_perfect_predictor():
    y = np.random.default_rng(0).normal(size=(10, 2))
    assert nrmse(y, y) == 0.0


def test_nrmse_zero_predictor():
    y = np.random.default_rng(1).normal(size=(10, 2))
    assert abs(nrmse(y, np.zeros_like(y)) - 1.0) < 1e-12


def test_nrmse_scalar_anchor():
    assert nrmse([[2.0]], [[1.0]]) == pytest.approx(0.5, abs=1e-15)


def test_nrmse_scale_invariance():
    rng = np.random.default_rng(2)
    truth = rng.normal(size=(20, 3))
    pred = rng.normal(size=(20, 3))
    base = nrmse(truth, pred)
    for c in (2.0, -3.5, 1e-6):
        assert nrmse(c * truth, c * pred) == pytest.approx(base, rel=1e-12)


def test_nrmse_vector_norms():
    # one sample with |truth| = 5: error |(3,4)-(0,0)| / |(3,4)| = 1
    assert nrmse([[3.0, 4.0]], [[0.0, 0.0]]) == pytest.approx(1.0, abs=1e-15)


def test_nrmse_all_zero_truth_rejected():
    with pytest.raises(ValueError, match="all-zero"):
        nrmse(np.zeros((3, 1)), np.ones((3, 1)))


def test_nrmse_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        nrmse(np.ones((3, 1)), np.ones((4, 1)))


def test_nrmse_rejects_vectors():
    with pytest.raises(ValueError, match=r"\(n, d\) shapes, got \(3,\)"):
        nrmse(np.ones(3), np.ones(3))
