import ast
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import mdfgan
from mdfgan.benchmarks import get
from mdfgan.data import (
    MultiFidelityDataset,
    Normalizer,
    dataset_from_rows,
    lhs_sample,
    load_csv,
    make_dataset,
    save_snapshot,
    write_csv,
    write_json,
)
from mdfgan.experiments import ExperimentResult, RunRecord, write_summary_json


# -- Latin hypercube sampling ------------------------------------------------


def strata_filled(points, lo, hi, n):
    """True when every 1/n stratum of [lo, hi] holds exactly one coordinate."""
    idx = np.floor((points - lo) / (hi - lo) * n).astype(int)
    idx = np.minimum(idx, n - 1)  # a point exactly at hi belongs to the top stratum
    return sorted(idx.tolist()) == list(range(n))


@pytest.mark.parametrize("n", [1, 4, 100])
@pytest.mark.parametrize("d", [1, 6])
def test_lhs_stratification(n, d):
    for seed in range(10):
        pts = lhs_sample(n, d, [0.0, 1.0], seed)
        assert pts.shape == (n, d)
        for j in range(d):
            assert strata_filled(pts[:, j], 0.0, 1.0, n)


def test_lhs_respects_general_bounds():
    bounds = [[-2.0, 3.0], [10.0, 11.0], [0.0, 0.5]]
    pts = lhs_sample(50, 3, bounds, 123)
    for j, (lo, hi) in enumerate(bounds):
        assert pts[:, j].min() >= lo and pts[:, j].max() <= hi
        assert strata_filled(pts[:, j], lo, hi, 50)


def test_lhs_deterministic_per_seed():
    a = lhs_sample(20, 2, [0, 1], 5)
    b = lhs_sample(20, 2, [0, 1], 5)
    np.testing.assert_array_equal(a, b)
    c = lhs_sample(20, 2, [0, 1], 6)
    assert np.abs(a - c).max() > 0


def test_lhs_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lhs_sample(0, 1, [0, 1], 0)
    with pytest.raises(ValueError):
        lhs_sample(4, 0, [0, 1], 0)
    with pytest.raises(ValueError, match="lo < hi"):
        lhs_sample(4, 1, [1.0, 1.0], 0)
    with pytest.raises(ValueError, match="shape"):
        lhs_sample(4, 2, [[0, 1]] * 3, 0)


# -- normalizers ---------------------------------------------------------------


def test_minmax_anchor_values():
    norm = Normalizer.fit("minmax", np.array([[1.0], [2.0], [3.0]]))
    out = norm.transform(np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_allclose(out.ravel(), [0.0, 0.5, 1.0], atol=1e-15)


def test_standard_centers_and_scales():
    rng = np.random.default_rng(2)
    data = rng.normal(loc=3.0, scale=2.5, size=(200, 3))
    norm = Normalizer.fit("standard", data)
    z = norm.transform(data)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)  # population stdev


def test_inverse_transform_round_trip():
    rng = np.random.default_rng(8)
    data = rng.uniform(-5, 9, size=(40, 2))
    for kind in ("none", "minmax", "standard"):
        norm = Normalizer.fit(kind, data)
        probe = rng.uniform(-5, 9, size=(7, 2))
        np.testing.assert_allclose(norm.inverse_transform(norm.transform(probe)), probe, atol=1e-12)


def test_constant_column_passes_through_with_warning():
    data = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.warns(UserWarning, match="constant column"):
        norm = Normalizer.fit("minmax", data)
    out = norm.transform(data)
    np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(out[:, 1], [5.0, 5.0, 5.0])  # untouched, not NaN


@pytest.mark.parametrize("kind", ["minmax", "standard"])
def test_normalizer_fit_rejects_a_rank_other_than_two(kind):
    """A 1-D column is not promoted to one row (which would warn about
    constant columns and widen a (3, 1) batch to (3, 3)); any rank but 2
    is a ValueError that names the shape."""
    for bad in (np.array([1.0, 2.0, 3.0]), np.float64(2.0), np.zeros((2, 3, 1))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(bad)}")):
                Normalizer.fit(kind, bad)


def test_unknown_normalizer_kind_rejected():
    with pytest.raises(ValueError, match="unknown normalizer"):
        Normalizer.fit("quantile", np.zeros((3, 1)))


def test_normalizer_serialization_round_trip():
    data = np.array([[1.0, -4.0], [3.0, 10.0]])
    for kind in ("none", "minmax", "standard"):
        norm = Normalizer.fit(kind, data)
        again = Normalizer.from_dict(norm.to_dict())
        probe = np.array([[2.0, 3.0]])
        np.testing.assert_array_equal(again.transform(probe), norm.transform(probe))


def test_identity_normalizer_copies_input():
    norm = Normalizer.identity()
    x = np.array([[1.0, 2.0]])
    out = norm.transform(x)
    np.testing.assert_array_equal(out, x)
    assert out is not x


# -- CSV loading -----------------------------------------------------------------


def test_load_csv_plain_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.1,0.2,3.0\n0.4,0.5,6.0\n")
    x, y = load_csv(path, 2, 1)
    np.testing.assert_array_equal(x, [[0.1, 0.2], [0.4, 0.5]])
    np.testing.assert_array_equal(y, [[3.0], [6.0]])
    assert x.flags.c_contiguous and y.flags.c_contiguous


def test_load_csv_skips_single_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n0.1,0.2,3.0\n")
    x, y = load_csv(path, 2, 1)
    assert x.shape == (1, 2) and y.shape == (1, 1)


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    """Spreadsheet "CSV UTF-8" exports start with a BOM; it must not turn
    the first data row into a header that is skipped."""
    path = tmp_path / "data.csv"
    path.write_bytes(b"\xef\xbb\xbf0.25\n0.5\n0.75\n")
    x, _ = load_csv(path, 1, 0)
    np.testing.assert_array_equal(x, [[0.25], [0.5], [0.75]])
    path.write_bytes(b"\xef\xbb\xbfx1,y\n0.5,1.0\n")
    x, y = load_csv(path, 1, 1)
    assert x.tolist() == [[0.5]] and y.tolist() == [[1.0]]


def test_load_csv_header_only_file_is_a_parse_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n")
    with pytest.raises(ValueError, match=r"data\.csv:1"):
        load_csv(path, 1, 1)


def test_load_csv_non_numeric_mid_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match=r"data\.csv:2"):
        load_csv(path, 1, 1)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite_fields(tmp_path, field):
    path = tmp_path / "data.csv"
    path.write_text(f"0.1,1.0\n0.2,{field}\n")
    with pytest.raises(ValueError, match=r"data\.csv:2: non-finite"):
        load_csv(path, 1, 1)


def test_load_csv_arity_error_names_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match=r"data\.csv:2.*expected 3"):
        load_csv(path, 2, 1)


def test_load_csv_empty_file_warns(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\n\n")
    with pytest.warns(UserWarning, match="no data rows"):
        x, y = load_csv(path, 1, 1)
    assert x.shape == (0, 1) and y.shape == (0, 1)


def test_load_csv_scientific_notation(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1e-3,2.5E+2\n")
    x, y = load_csv(path, 1, 1)
    np.testing.assert_allclose(x, [[1e-3]])
    np.testing.assert_allclose(y, [[250.0]])


def test_write_csv_uses_crlf_and_shortest_float_reprs(tmp_path):
    path = write_csv(tmp_path / "out.csv", ["name", "n", "value"], [["a", 3, 0.1], ["b", -1, 1e-310]])
    assert path.read_bytes() == b"name,n,value\r\na,3,0.1\r\nb,-1,1e-310\r\n"
    assert write_csv(path, None, [[2.5]]).read_bytes() == b"2.5\r\n"  # no header row


def test_csv_is_imported_by_data_alone():
    """data.write_csv is the one CSV writer and load_csv the one reader."""
    package = Path(mdfgan.__file__).parent
    importers = sorted(
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if re.search(r"^\s*(import csv|from csv import)\b", path.read_text(encoding="utf-8"), re.M)
    )
    assert importers == ["data.py"]


def test_json_dumps_and_os_replace_are_called_by_data_alone():
    """data.write_json is the one JSON writer and data._write_text the one
    place that replaces a file."""
    package = Path(mdfgan.__file__).parent
    callers = sorted(
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if re.search(r"\b(json\.dumps|os\.replace)\(", path.read_text(encoding="utf-8"))
    )
    assert callers == ["data.py"]


def package_nodes():
    """(module, innermost enclosing function or None, node) for each AST node of the package."""
    package = Path(mdfgan.__file__).parent
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):  # outer functions first, so the innermost is written last
            if isinstance(func, ast.FunctionDef):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            yield path.relative_to(package).as_posix(), owner.get(node), node


READ_METHODS = ("open", "read_text", "read_bytes")


def test_data_read_text_is_the_one_file_reader():
    """The config file, the CSV files and the checkpoint are read and decoded
    in one place, so each reader names the file it cannot read or decode."""
    readers = {
        (module, func)
        for module, func, node in package_nodes()
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "open" or getattr(node.func, "attr", None) in READ_METHODS)
    }
    assert readers == {("data.py", "read_text")}


def test_no_module_imports_a_private_name_of_another():
    """A name that starts with an underscore stays in its module: no module
    of the package imports one from another (``nn`` exposes ``param_count``
    so that the checkpoint reader need not know the parameter layout)."""
    private = [
        (module, node.module, alias.name)
        for module, _, node in package_nodes()
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mdfgan"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_main_alone_maps_a_failure_to_an_exit_code():
    """main returns 1, 2 and 3, one per exception class; no other function
    returns a nonzero code or exits, and no module has a class of its own
    for usage errors."""
    nodes = list(package_nodes())
    codes = [
        (module, func, node.value.value)
        for module, func, node in nodes
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int and node.value.value != 0
    ]
    assert codes == [("cli.py", "main", 1), ("cli.py", "main", 2), ("cli.py", "main", 3)]
    exits = [(module, func) for module, func, node in nodes if getattr(node, "attr", None) == "exit"]
    assert exits == [("cli.py", "app")]
    assert not [node for _, _, node in nodes if getattr(node, "name", None) == "UsageError"]


def test_experiments_run_cells_alone_makes_a_process_pool():
    """A table and a direct run_experiment fork through one pool path; a
    second one, cell-major, served run_experiment alone."""
    makers = {
        (module, func)
        for module, func, node in package_nodes()
        if "ProcessPoolExecutor" in (getattr(node, "attr", None), getattr(node, "id", None))
    }
    assert makers == {("experiments.py", "_run_cells")}


def test_field_value_is_the_one_rule_for_a_value_from_outside():
    """finite_vector was a second rule, for the checkpoint's params and
    normalizers, beside the config field rule; cli checked counts, seeds and
    --points by hand. The rule is now defined once, in data, and cli calls it
    for each."""
    package = Path(mdfgan.__file__).parent
    for path in package.rglob("*.py"):
        assert not re.search(r"\b(finite_vector|_FLOAT_MAX)\b", path.read_text(encoding="utf-8")), path
    nodes = list(package_nodes())
    rules = [(module, node.name) for module, _, node in nodes
             if isinstance(node, ast.FunctionDef) and node.name.endswith("field_value")]
    assert rules == [("data.py", "field_value")]
    callers = {func for module, func, node in nodes
               if module == "cli.py" and isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field_value"}
    assert callers == {"_check_counts", "_base_seed", "cmd_predict"}
    assert not [node for module, _, node in nodes if module == "cli.py" and getattr(node, "attr", None) == "isfinite"]


def test_data_stream_is_the_one_owner_of_a_tagged_seed_stream():
    """gan and experiments kept two lists of tags apart, as _SEED_*
    constants, and wrote SeedSequence([seed, tag]) out six times. The tags
    are now one table, each key once with its own tag, and data alone names
    SeedSequence."""
    package = Path(mdfgan.__file__).parent
    tables = [node.value for module, _, node in package_nodes() if isinstance(node, ast.Assign)
              and any(getattr(target, "id", None) == "STREAMS" for target in node.targets)]
    assert len(tables) == 1 and isinstance(tables[0], ast.Dict)
    streams = mdfgan.data.STREAMS
    assert [key.value for key in tables[0].keys] == list(streams) and len(set(streams.values())) == len(streams)
    for path in package.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "_SEED_" not in text, path
        assert ("SeedSequence" in text) == (path.name == "data.py"), path


# the relations between sample budgets, each with one function and one message text
BUDGET_RELATIONS = {("data.py", "sample_budget"): "need n_lf >= n_hf",
                    ("gan.py", "check_adversarial_budget"): "adversarial training needs at least two high-fidelity"}
# what each count-taking function calls to check its counts
COUNT_CHECKS = {
    ("data.py", "lhs_sample"): {"field_value"},
    ("data.py", "sample_budget"): {"field_value"},
    ("data.py", "make_dataset"): {"sample_budget"},
    ("data.py", "_subsample"): {"field_value"},  # dataset_from_rows's n_lf and n_hf
    ("gan.py", "check_adversarial_budget"): {"field_value"},
    ("gan.py", "train_adversarial"): {"check_adversarial_budget"},
    ("gan.py", "train"): {"check_adversarial_budget"},
    ("experiments.py", "_run_cells"): {"field_value", "sample_budget", "check_adversarial_budget"},
    ("experiments.py", "run_hf_sweep"): {"field_value"},
    ("experiments.py", "run_lf_sweep"): {"field_value"},
    ("experiments.py", "emit_correlation_scatter"): {"field_value"},
}


def test_every_count_of_the_python_api_goes_through_the_rule():
    """run_hf_sweep and run_lf_sweep truncated a grid item with int(v), and
    lhs_sample, make_dataset, _subsample, _check_table and
    emit_correlation_scatter each checked their counts by hand, without the
    argument's name. Each count-taking function now calls field_value,
    directly or through the one function of each budget relation."""
    package = Path(mdfgan.__file__).parent
    nodes = list(package_nodes())
    assert not [node for module, _, node in nodes if module == "experiments.py"
                and isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int"]
    defined = {(module, node.name) for module, _, node in nodes if isinstance(node, ast.FunctionDef)}
    for (module, func), text in BUDGET_RELATIONS.items():
        assert (module, func) in defined
        assert sum(path.read_text(encoding="utf-8").count(text) for path in package.rglob("*.py")) == 1, text
    callees: dict = {}
    for module, func, node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callees.setdefault((module, func), set()).add(node.func.id)
    for site, checks in COUNT_CHECKS.items():
        assert checks <= callees.get(site, set()), site


@pytest.mark.parametrize(
    "write",
    [
        lambda path, seed: write_csv(path, ["seed"], [[seed]]),
        lambda path, seed: write_json(path, {"seed": seed}),
        lambda path, seed: write_summary_json(
            [ExperimentResult("x", 10, 2, (RunRecord(seed, 0.5, 1.0, True),))], path
        ),
    ],
    ids=["write_csv", "write_json", "write_summary_json"],
)
def test_artifact_writers_replace_the_file_atomically(tmp_path, monkeypatch, write):
    """A write that fails part-way leaves the previous artifact byte for
    byte and no temporary file behind."""
    path = write(tmp_path / "artifact", 1)
    before = path.read_bytes()
    real_write_text = Path.write_text

    def failing_write_text(self, data, *args, **kwargs):
        real_write_text(self, data[:10], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    with pytest.raises(OSError, match="disk full"):
        write(path, 2)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_write_json_rejects_non_finite_floats(tmp_path):
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(tmp_path / "doc.json", {"x": float("nan")})
    assert not (tmp_path / "doc.json").exists()


# -- dataset assembly --------------------------------------------------------------


def test_make_dataset_counts_and_bounds():
    pair = get("forrester1d")
    ds = make_dataset(pair, 100, 5, seed=0)
    assert (ds.n_lf, ds.n_hf, ds.d1, ds.d2) == (100, 5, 1, 1)
    assert ds.lf_x.min() >= 0.0 and ds.lf_x.max() <= 1.0
    np.testing.assert_array_equal(ds.lf_y, pair.evaluate_lf(ds.lf_x))
    np.testing.assert_array_equal(ds.hf_y, pair.evaluate_hf(ds.hf_x))


def test_make_dataset_deterministic_per_seed():
    pair = get("currin2d")
    a = make_dataset(pair, 30, 4, seed=9)
    b = make_dataset(pair, 30, 4, seed=9)
    np.testing.assert_array_equal(a.lf_x, b.lf_x)
    np.testing.assert_array_equal(a.hf_x, b.hf_x)


def test_make_dataset_seeds_differ():
    pair = get("forrester1d")
    for seed in range(10):
        a = make_dataset(pair, 20, 3, seed=seed)
        b = make_dataset(pair, 20, 3, seed=seed + 1000)
        assert np.abs(a.lf_x - b.lf_x).max() > 0


def test_make_dataset_lf_and_hf_draws_are_independent():
    pair = get("forrester1d")
    ds = make_dataset(pair, 10, 10, seed=3)
    # unnested by default: same budget, yet the two input sets differ
    assert np.abs(np.sort(ds.lf_x, axis=0) - np.sort(ds.hf_x, axis=0)).max() > 0


def test_make_dataset_nested_subset():
    pair = get("hartmann6d")
    ds = make_dataset(pair, 40, 6, seed=5, nested=True)
    lf_rows = {tuple(row) for row in ds.lf_x}
    assert all(tuple(row) in lf_rows for row in ds.hf_x)


def test_make_dataset_rejects_bad_budgets():
    pair = get("forrester1d")
    with pytest.raises(ValueError):
        make_dataset(pair, 3, 5, seed=0)
    with pytest.raises(ValueError):
        make_dataset(pair, 3, 0, seed=0)


def test_dataset_validation_catches_mismatches():
    ok = dict(
        lf_x=np.zeros((3, 1)),
        lf_y=np.zeros((3, 1)),
        hf_x=np.zeros((2, 1)),
        hf_y=np.zeros((2, 1)),
    )
    MultiFidelityDataset(**ok)
    with pytest.raises(ValueError, match="row count"):
        MultiFidelityDataset(**{**ok, "lf_y": np.zeros((2, 1))})
    with pytest.raises(ValueError, match="dimension"):
        MultiFidelityDataset(**{**ok, "hf_x": np.zeros((2, 2))})
    with pytest.raises(TypeError, match="bounds"):  # the box is the pair's, not the dataset's
        MultiFidelityDataset(**ok, bounds=[[-1.0, 1.0]])


def test_dataset_from_rows_subsamples_deterministically():
    rng = np.random.default_rng(0)
    lf = rng.uniform(size=(30, 2)), rng.uniform(size=(30, 1))
    hf = rng.uniform(size=(10, 2)), rng.uniform(size=(10, 1))
    a = dataset_from_rows(lf, hf, 12, 4, seed=1)
    b = dataset_from_rows(lf, hf, 12, 4, seed=1)
    assert a.n_lf == 12 and a.n_hf == 4
    np.testing.assert_array_equal(a.lf_x, b.lf_x)
    np.testing.assert_array_equal(a.hf_x, b.hf_x)


def test_dataset_from_rows_rejects_oversampling():
    rows = np.array([[0.5]]), np.array([[1.0]])
    with pytest.raises(ValueError, match="file has 1"):
        dataset_from_rows(rows, rows, 2, None)


@pytest.mark.parametrize(("n_lf", "n_hf", "fidelity"), [(-1, None, "low"), (None, 0, "high")])
def test_dataset_from_rows_rejects_counts_below_one(n_lf, n_hf, fidelity):
    rows = np.array([[0.25], [0.5]]), np.array([[1.0], [2.0]])
    name, value = ("n_lf", n_lf) if fidelity == "low" else ("n_hf", n_hf)
    with pytest.raises(ValueError, match=f"^{name} must be finite and at least 1, got {value}$"):
        dataset_from_rows(rows, rows, n_lf, n_hf)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda pair: lhs_sample(0, 1, [0, 1], 0), "n must be finite and at least 1, got 0"),
        (lambda pair: lhs_sample(4, 1.0, [0, 1], 0), "d must be of type int, got 1.0"),
        (lambda pair: make_dataset(pair, 5, 10, 0), "need n_lf >= n_hf, got n_lf=5 and n_hf=10"),
        (lambda pair: make_dataset(pair, 10, 0, 0), "n_hf must be finite and at least 1, got 0"),
        (lambda pair: make_dataset(pair, 10, np.True_, 0), "n_hf must be of type int, got np.True_"),
        (lambda pair: dataset_from_rows(*[(np.zeros((3, 1)), np.zeros((3, 1)))] * 2, 2.0),
         "n_lf must be of type int, got 2.0"),
    ],
    ids=["lhs-n", "lhs-d", "budget", "zero-hf", "numpy-bool", "rows-float"],
)
def test_a_sample_count_is_held_to_the_rule_under_its_name(call, message):
    with pytest.raises(ValueError) as exc:
        call(get("forrester1d"))
    assert str(exc.value) == message


@pytest.mark.parametrize("x", [-3.25, 2.0**52, 1e16, -1e16, np.finfo(float).max, -np.finfo(float).max])
def test_a_flat_dimension_gets_a_box_at_any_finite_constant(x):
    """A constant input column, at any finite value (past 2^52, where
    x +- 0.5 rounds back to x, too), is kept as given: no box is made from
    the rows, so none has to be widened."""
    lf = np.array([[x, 0.0], [x, 1.0]]), np.array([[0.0], [1.0]])
    hf = np.array([[x, 0.5]]), np.array([[2.0]])
    ds = dataset_from_rows(lf, hf)
    assert ds.lf_x.tobytes() == lf[0].tobytes() and ds.hf_x.tobytes() == hf[0].tobytes()


def test_save_snapshot_round_trips_through_load_csv(tmp_path):
    pair = get("forrester1d")
    ds = make_dataset(pair, 8, 3, seed=4)
    paths = save_snapshot(ds, tmp_path / "snap", seed=4)
    assert all(p.exists() for p in paths.values())
    x, y = load_csv(paths["lf"], 1, 1)
    np.testing.assert_array_equal(x, ds.lf_x)
    np.testing.assert_array_equal(y, ds.lf_y)
    assert json.loads(paths["sidecar"].read_text())["bounds"] is None  # no box handed over


@pytest.mark.parametrize(
    ("bounds", "written"), [([0.0, 2.0], [[0.0, 2.0]] * 2), ([[0, 1], [-1, 3]], [[0.0, 1.0], [-1.0, 3.0]])]
)
def test_save_snapshot_writes_the_box_it_is_handed(tmp_path, bounds, written):
    """A (2,) box applies to every dimension, as in lhs_sample; a box that
    is not (d1, 2) or that is flat is rejected before any file is written."""
    ds = make_dataset(get("currin2d"), 6, 2, seed=1)
    paths = save_snapshot(ds, tmp_path / "snap", seed=1, bounds=bounds)
    assert json.loads(paths["sidecar"].read_text())["bounds"] == written
    for bad, message in (([[0.0, 1.0]], "shape"), ([[0.0, 1.0], [2.0, 2.0]], "degenerate")):
        with pytest.raises(ValueError, match=message):
            save_snapshot(ds, tmp_path / "bad", bounds=bad)
    assert not (tmp_path / "bad").exists()
