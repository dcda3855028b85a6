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
)


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
        bounds=[[-1.0, 1.0]],
    )
    MultiFidelityDataset(**ok)
    with pytest.raises(ValueError, match="row count"):
        MultiFidelityDataset(**{**ok, "lf_y": np.zeros((2, 1))})
    with pytest.raises(ValueError, match="dimension"):
        MultiFidelityDataset(**{**ok, "hf_x": np.zeros((2, 2))})
    with pytest.raises(ValueError, match="outside"):
        MultiFidelityDataset(**{**ok, "hf_x": np.full((2, 1), 4.0)})


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
    with pytest.raises(ValueError, match=f"{fidelity}-fidelity rows, need at least 1"):
        dataset_from_rows(rows, rows, n_lf, n_hf)


def test_dataset_from_rows_widens_flat_dimensions():
    rows = np.array([[0.5, 0.0], [0.5, 1.0], [0.5, 2.0]]), np.ones((3, 1))
    ds = dataset_from_rows(rows, rows)
    lo, hi = ds.bounds[0]
    assert lo < 0.5 < hi  # the constant first coordinate got a real box
    np.testing.assert_array_equal(ds.bounds[1], [0.0, 2.0])


@pytest.mark.parametrize("x", [-3.25, 2.0**52, 1e16, -1e16, np.finfo(float).max, -np.finfo(float).max])
def test_a_flat_dimension_gets_a_box_at_any_finite_constant(x):
    """Widened by 0.5 where that moves the bound, else by one ulp."""
    ds = dataset_from_rows((np.array([[x]]), np.array([[0.0]])), (np.array([[x]]), np.array([[1.0]])))
    lo, hi = ds.bounds[0]
    assert lo <= x <= hi and lo < hi and np.isfinite([lo, hi]).all()
    if abs(x) < 2.0**52:
        assert (lo, hi) == (x - 0.5, x + 0.5)


def test_save_snapshot_round_trips_through_load_csv(tmp_path):
    pair = get("forrester1d")
    ds = make_dataset(pair, 8, 3, seed=4)
    paths = save_snapshot(ds, tmp_path / "snap", seed=4)
    assert all(p.exists() for p in paths.values())
    x, y = load_csv(paths["lf"], 1, 1)
    np.testing.assert_array_equal(x, ds.lf_x)
    np.testing.assert_array_equal(y, ds.lf_y)
