"""Property tests: the sigmoid, the leaky_relu, LHS stratification, the
normalizer inverse, the CSV, snapshot and checkpoint round trips, and
mutated checkpoints and text inputs."""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
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
from mdfgan import cli
from mdfgan.gan import MODES, GanMdfModel, TrainingConfig, load_checkpoint, save_checkpoint, train
from mdfgan.nn.activations import KINDS, SIGMOID, apply, backward, leaky_relu
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
    and the sidecar records its shape and the box handed to save_snapshot."""
    lf_x, hf_x = data.draw(_rows(n_lf, d1)), data.draw(_rows(n_hf, d1))
    box = np.tile([-np.finfo(float).max, np.finfo(float).max], (d1, 1))
    ds = MultiFidelityDataset(lf_x, data.draw(_rows(n_lf, d2)), hf_x, data.draw(_rows(n_hf, d2)))
    with tempfile.TemporaryDirectory() as tmp:
        paths = save_snapshot(ds, tmp, seed=7, bounds=box)
        lf, hf = load_csv(paths["lf"], d1, d2), load_csv(paths["hf"], d1, d2)
        sidecar = json.loads(paths["sidecar"].read_text(encoding="utf-8"))
    for (x_read, y_read), x, y in ((lf, ds.lf_x, ds.lf_y), (hf, ds.hf_x, ds.hf_y)):
        assert x_read.tobytes() == x.tobytes() and y_read.tobytes() == y.tobytes()
    assert sidecar == {
        "bounds": box.tolist(), "seed": 7,
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


# a value of each JSON type, and of any type with numpy scalars, which JSON cannot hold
json_value = st.one_of(
    st.integers(-2, 40), st.floats(), st.booleans(), st.text(max_size=6), st.none(),
    st.lists(st.integers(-1, 40), max_size=3),
)
any_value = st.one_of(json_value, st.integers(0, 40).map(np.int64), st.booleans().map(np.bool_))


@pytest.fixture(scope="module")
def checkpoint_doc(tmp_path_factory):
    """The document of one tiny trained currin2d checkpoint (d1=2, d2=1)."""
    cfg = TrainingConfig(epochs_lf=2, epochs_hf=1, hidden_sizes=(3,), hidden_activations=("leaky_relu",),
                         normalizer="standard")
    model, _ = train(make_dataset(get("currin2d"), 8, 3, seed=0), cfg)
    return json.loads(save_checkpoint(model, cfg, tmp_path_factory.mktemp("ckpt") / "ckpt.json").read_text())


# where a mutation lands: every config key, and the model's scalars and parts
SPOTS = [
    *(("config", f.name) for f in fields(TrainingConfig)),
    ("model", "d1"), ("model", "d2"), ("model", "lf_block", "frozen"), ("model", "hf_block", "params"),
    ("model", "normalizers", "inputs"), ("model", "normalizers", "hf_outputs", "scale"),
]


@settings(max_examples=60, deadline=None)
@given(spot=st.sampled_from(SPOTS), action=st.sampled_from(["drop", "add", "swap", "scale"]), data=st.data())
def test_a_mutated_checkpoint_predicts_or_exits_two(checkpoint_doc, spot, action, data):
    """Dropping a key, adding one, swapping a value's type or scaling a
    number never lets an exception escape predict, and predict exits 0
    only on a config that TrainingConfig.from_dict accepts."""
    doc = json.loads(json.dumps(checkpoint_doc))
    *where, key = spot
    part = doc
    for name in where:
        part = part[name]
    if action == "drop":
        del part[key]
    elif action == "add":
        part[data.draw(st.text(min_size=1, max_size=6), label="new key")] = data.draw(json_value, label="value")
    elif action == "swap":
        part[key] = data.draw(json_value, label="value")
    elif isinstance(part[key], (int, float)) and not isinstance(part[key], bool):
        part[key] *= data.draw(st.sampled_from([-1, 0.5, 1e300]), label="factor")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # lr_disc <= lr_gen
        try:
            accepted = bool(TrainingConfig.from_dict(doc["config"]))
        except ValueError:
            accepted = False
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.json"
            path.write_text(json.dumps(doc))
            code = cli.main(["predict", "--checkpoint", str(path), "--points", "0.5,0.5", "--out", tmp])
    assert code in (0, 2)
    assert accepted or code == 2


# the text inputs of the command line, as rows of fields, and their row and field separators
TEXT_INPUTS = {
    "--config": ([["normalizer", "standard"], ["lr_lf", "0.03"], ["lr_sup", "0.05"], ["seed", "4"],
                  ["hidden_activations", "leaky_relu"], ["leaky_alpha", "0.01"], ["supervised_trick", "yes"],
                  ["lf_batch_cap", "4"], ["epochs_lf", "2"], ["hidden_sizes", "3"]], "\n", " = "),
    "--csv-lf": ([["x", "y"], *([f"0.{i}", f"{i / 3!r}"] for i in range(1, 9))], "\r\n", ","),
    "--csv-hf": ([["0.15", "0.2"], ["0.5", "1.25"], ["0.85", "2.5"]], "\r\n", ","),
    "--csv-in": ([["0.1"], ["0.5"], ["0.9"]], "\n", ","),
    "--points": ([["0.1"], ["0.5"], ["0.9"]], ";", ","),
}
# "\udcff" is written as the byte 0xff, which no UTF-8 text holds; as an argument, it is how Python reads it
INJECTED = ["\udcff", "\x00", '"', "\r"]
MUTATIONS = ["drop row", "duplicate row", "swap row", "drop field", "duplicate field", "swap field",
             "inject", "scale", "huge"]


@st.composite
def mutated_text(draw, rows, row_sep, field_sep):
    """The text of ``rows`` after one mutation: a row or a field dropped,
    duplicated or swapped with another, a character injected into a field,
    or a number in a field scaled by 1e300 or replaced by a 400-digit int."""
    rows = [list(row) for row in rows]
    i = draw(st.integers(0, len(rows) - 1), label="row")
    row = rows[i]
    j = draw(st.integers(0, len(row) - 1), label="field")
    verb, _, level = draw(st.sampled_from(MUTATIONS), label="mutation").partition(" ")
    items, k = (rows, i) if level == "row" else (row, j)
    if verb == "drop":
        del items[k]
    elif verb == "duplicate":
        items.insert(k, items[k])
    elif verb == "swap":
        other = draw(st.integers(0, len(items) - 1), label="with")
        items[k], items[other] = items[other], items[k]
    elif verb == "inject":
        at = draw(st.integers(0, len(row[j])), label="at")
        row[j] = row[j][:at] + draw(st.sampled_from(INJECTED), label="char") + row[j][at:]
    elif verb == "scale" and re.fullmatch(r"[-+.\d]+", row[j]):
        row[j] = repr(float(row[j]) * 1e300)
    elif verb == "huge":
        row[j] = "9" * 400
    return joined(rows, row_sep, field_sep)


def joined(rows, row_sep, field_sep):
    return row_sep.join(field_sep.join(row) for row in rows)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A tiny trained forrester1d checkpoint (d1 = d2 = 1) with standard normalizers."""
    cfg = TrainingConfig(epochs_lf=2, epochs_hf=1, hidden_sizes=(3,), normalizer="standard")
    model, _ = train(make_dataset(get("forrester1d"), 8, 3, seed=0), cfg)
    return save_checkpoint(model, cfg, tmp_path_factory.mktemp("ckpt") / "ckpt.json")


def rejected_by_its_reader(flag, argv) -> bool:
    """Whether the reader of the input that ``flag`` gives in ``argv``
    rejects it: the config file through resolve_config on ``argv``, a CSV
    file through load_csv, --points text unless each row is one finite float."""
    given = argv[argv.index(flag) + 1]
    try:
        if flag == "--points":
            return not all(math.isfinite(float(row)) for row in given.split(";"))
        if flag == "--config":
            cli.resolve_config(cli.build_parser().parse_args(argv), TrainingConfig())
        else:
            load_csv(given, 1, 0 if flag == "--csv-in" else 1)
    except ValueError:
        return True
    return False


@settings(max_examples=100, deadline=None)
@given(flag=st.sampled_from(sorted(TEXT_INPUTS)), data=st.data())
def test_a_mutated_text_input_exits_zero_one_or_two(tiny_checkpoint, flag, data):
    """One mutated config file, CSV file or --points text, the others left
    valid, never lets an exception escape main nor exits 3, exits 1 only on
    a divergence, and exits 2 whenever the input's own reader rejects it. A
    train run takes a config file and the CSV pair; its budget flags
    override the file's, so each run stays tiny."""
    texts = {name: joined(*spec) for name, spec in TEXT_INPUTS.items()}
    texts[flag] = data.draw(mutated_text(*TEXT_INPUTS[flag]), label="text")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name[2:] for name in TEXT_INPUTS}
        for name, path in paths.items():
            path.write_bytes(texts[name].encode("utf-8", "surrogateescape"))
        if flag in ("--csv-in", "--points"):
            given_input = texts[flag] if flag == "--points" else str(paths[flag])
            argv = ["predict", "--checkpoint", str(tiny_checkpoint), flag, given_input]
        else:
            files = [arg for name in ("--config", "--csv-lf", "--csv-hf") for arg in (name, str(paths[name]))]
            argv = ["train", *files, "--d1", "1", "--epochs-lf", "2", "--epochs-hf", "1", "--hidden", "3"]
        argv += ["--out", str(Path(tmp) / "out")]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", UserWarning)  # constant columns; lr_disc <= lr_gen; no rows
            rejected = rejected_by_its_reader(flag, argv)
            code = cli.main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert (code == 1) == err.getvalue().startswith("training diverged: "), err.getvalue()
    assert code == 2 or not rejected, err.getvalue()


# a valid value of each field, any of which a draw may replace by any_value
VALID = {
    **{name: st.one_of(st.floats(0, 1e300), st.integers(0, 10**20), st.floats(0, 1).map(np.float64))
       for name in ("lr_lf", "lr_disc", "lr_gen", "lr_sup")},
    **{name: st.integers(1, 10**20) for name in ("epochs_lf", "epochs_hf", "lf_batch_cap", "seed")},
    "hidden_sizes": st.lists(st.integers(1, 4), min_size=1, max_size=2),
    "hidden_activations": st.lists(st.sampled_from(KINDS), min_size=1, max_size=1).map(tuple),
    "leaky_alpha": st.floats(1e-3, 10.0),
    "normalizer": st.sampled_from(NORMALIZER_KINDS),
    "mode": st.sampled_from(MODES),
    "supervised_trick": st.booleans(),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_config_the_rule_accepts_survives_a_checkpoint(data):
    """A config the rule accepts is saved and loaded back equal, as the same
    JSON. A numpy int used to be accepted, then failed in save_checkpoint."""
    doc = {name: data.draw(strategy, label=name) for name, strategy in VALID.items()}
    for name in data.draw(st.lists(st.sampled_from(sorted(VALID)), max_size=2, unique=True), label="replaced"):
        doc[name] = data.draw(any_value, label=name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # lr_disc <= lr_gen
        try:
            cfg = TrainingConfig(**doc)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            _, again = load_checkpoint(save_checkpoint(GanMdfModel.build(1, 1, cfg), cfg, Path(tmp) / "ckpt.json"))
    assert again == cfg
    assert json.dumps(again.to_dict()) == json.dumps(cfg.to_dict())
