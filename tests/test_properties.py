"""Property tests: the sigmoid, the normalizer inverse and the checkpoint round trip."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdfgan.benchmarks import get
from mdfgan.data import NORMALIZER_KINDS, Normalizer, make_dataset
from mdfgan.gan import TrainingConfig, load_checkpoint, save_checkpoint, train
from mdfgan.nn.activations import SIGMOID, apply
from oracles import masked_sigmoid

finite = st.floats(-1e6, 1e6, allow_subnormal=False)
samples = st.tuples(st.integers(1, 8), st.integers(1, 4)).flatmap(lambda shape: arrays(float, shape, elements=finite))
ULP_AT_ONE = 2.0**-52


@settings(max_examples=500, deadline=None)
@given(v=st.floats(allow_nan=False, allow_infinity=False))
def test_sigmoid_is_bounded_symmetric_and_close_to_the_masked_form(v):
    """For any finite float: the output lies in [0, 1], s(v) + s(-v) is
    within 2^-52 of 1, and s(v) is within 2^-52 of the masked form (the
    largest difference measured over 2e7 points)."""
    s, s_neg = apply(SIGMOID, np.array([v, -v]))
    assert 0.0 <= s <= 1.0
    assert abs(s + s_neg - 1.0) <= ULP_AT_ONE
    assert abs(s - masked_sigmoid(np.array([v]))[0]) <= ULP_AT_ONE


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(NORMALIZER_KINDS), data=samples)
def test_normalizer_inverse_undoes_the_transform(kind, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant columns pass through, with a warning
        norm = Normalizer.fit(kind, data)
    scaled = norm.transform(data)
    assert np.isfinite(scaled).all()
    back = norm.inverse_transform(scaled)
    if kind == "none":
        assert np.array_equal(back, data) and not np.shares_memory(back, data)
    else:
        np.testing.assert_allclose(back, data, rtol=1e-12, atol=1e-12 * np.abs(data).max())


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(["forrester1d", "currin2d"]),
    kind=st.sampled_from(NORMALIZER_KINDS),
    hidden=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    activation=st.sampled_from(["sigmoid", "leaky_relu", "ricker", "dft", "inverse_multiquadratic"]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_checkpoint_round_trip_predicts_bit_identically(name, kind, hidden, activation, seed, data):
    """A trained model and its reloaded checkpoint give the same bits on
    any input, and the checkpoint holds the parameters alone: the loaded
    model serializes back to the same document."""
    pair = get(name)
    cfg = TrainingConfig(
        epochs_lf=3, epochs_hf=2, hidden_sizes=tuple(hidden), hidden_activations=(activation,),
        normalizer=kind, seed=seed,
    )
    model, _ = train(make_dataset(pair, 8, 3, seed=seed), cfg)
    with tempfile.TemporaryDirectory() as tmp:
        again, cfg_again = load_checkpoint(save_checkpoint(model, cfg, Path(tmp) / "ckpt.json"))
    assert cfg_again == cfg
    assert again.to_dict() == model.to_dict()
    points = data.draw(arrays(float, (data.draw(st.integers(1, 6)), pair.d1), elements=st.floats(-2.0, 3.0)))
    assert np.array_equal(again.predict(points), model.predict(points))
