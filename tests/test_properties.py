"""Property tests: the sigmoid, the leaky_relu, LHS stratification, the
normalizer inverse, and the CSV, snapshot and checkpoint round trips."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mdfgan.benchmarks import get
from mdfgan.data import (
    NORMALIZER_KINDS,
    MultiFidelityDataset,
    Normalizer,
    lhs_sample,
    load_csv,
    make_dataset,
    save_snapshot,
    write_csv,
)
from mdfgan.gan import TrainingConfig, load_checkpoint, save_checkpoint, train
from mdfgan.nn.activations import SIGMOID, apply, backward, leaky_relu
from oracles import masked_leaky_relu, masked_sigmoid

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


@settings(max_examples=500, deadline=None)
@given(
    v=st.floats(-1e307, 1e307),
    alpha=st.one_of(st.sampled_from([0.01, 0.2, 1.0, 3.0]), st.floats(1e-6, 10.0)),
    upstream=st.floats(-1e300, 1e300),
)
def test_leaky_relu_gives_the_bits_of_the_masked_form(v, alpha, upstream):
    """For any finite v (signed zeros and subnormals included) and slope
    alpha in (0, 10], the forward and backward give the np.where oracle's
    bits; alpha*v stays finite on these ranges."""
    act = leaky_relu(alpha)
    pre, up = np.array([v, -v]), np.array([upstream, -upstream])
    want, slope = masked_leaky_relu(pre, alpha)
    out = apply(act, pre)
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    assert np.array_equal(backward(act, pre, out, up).view(np.int64), (up * slope).view(np.int64))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 4),
    lo=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_lhs_fills_every_stratum_once(n, d, lo, width, seed):
    """In every dimension each of the n equal strata of [lo, hi] holds
    exactly one point, and every point lies in the box."""
    hi = lo + width
    pts = lhs_sample(n, d, [lo, hi], seed)
    assert pts.shape == (n, d)
    assert ((pts >= lo) & (pts <= hi)).all()
    strata = np.minimum(np.floor((pts - lo) / (hi - lo) * n).astype(int), n - 1)
    for j in range(d):
        assert sorted(strata[:, j].tolist()) == list(range(n))


def _rows(n, width):
    return arrays(float, (n, width), elements=st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(d1=st.integers(1, 3), d2=st.integers(1, 2), n_lf=st.integers(1, 8), n_hf=st.integers(1, 4), data=st.data())
def test_snapshot_round_trips_through_load_csv(d1, d2, n_lf, n_hf, data):
    """Any finite dataset written by save_snapshot reads back through
    load_csv with the same bits (signed zeros and subnormals included),
    and the sidecar records its shape and box."""
    lf_x, hf_x = data.draw(_rows(n_lf, d1)), data.draw(_rows(n_hf, d1))
    box = np.tile([-np.finfo(float).max, np.finfo(float).max], (d1, 1))  # holds every finite input
    ds = MultiFidelityDataset(lf_x, data.draw(_rows(n_lf, d2)), hf_x, data.draw(_rows(n_hf, d2)), box)
    with tempfile.TemporaryDirectory() as tmp:
        paths = save_snapshot(ds, tmp, seed=7)
        lf, hf = load_csv(paths["lf"], d1, d2), load_csv(paths["hf"], d1, d2)
        sidecar = json.loads(paths["sidecar"].read_text(encoding="utf-8"))
    for (x_read, y_read), x, y in ((lf, ds.lf_x, ds.lf_y), (hf, ds.hf_x, ds.hf_y)):
        assert x_read.tobytes() == x.tobytes() and y_read.tobytes() == y.tobytes()
    assert sidecar == {
        "bounds": ds.bounds.tolist(), "seed": 7,
        "n_lf": n_lf, "n_hf": n_hf, "d1": d1, "d2": d2,
    }


FLOAT_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.225e-308, np.finfo(float).max, -np.finfo(float).max)


@settings(max_examples=60, deadline=None)
@given(d1=st.integers(1, 3), d2=st.integers(0, 2), n=st.integers(1, 6), data=st.data())
def test_write_csv_then_load_csv_gives_the_same_bits(d1, d2, n, data):
    """Any finite (n, d1 + d2) array written by write_csv, under a header,
    reads back through load_csv as the same bits: signed zeros, subnormals
    and the largest finite floats included."""
    elements = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=False, allow_infinity=False))
    table = data.draw(arrays(float, (n, d1 + d2), elements=elements))
    header = [f"c{j}" for j in range(d1 + d2)]
    with tempfile.TemporaryDirectory() as tmp:
        x, y = load_csv(write_csv(Path(tmp) / "t.csv", header, table.tolist()), d1, d2)
    assert x.shape == (n, d1) and y.shape == (n, d2)
    assert np.hstack([x, y]).tobytes() == table.tobytes()


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
