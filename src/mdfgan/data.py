"""Sampling, normalization, and dataset assembly for multi-fidelity experiments."""

from __future__ import annotations

import csv
import json
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

NORMALIZER_KINDS = ("none", "minmax", "standard")


def _as_bounds(bounds, d: int) -> np.ndarray:
    arr = np.asarray(bounds, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (d, 1))
    if arr.shape != (d, 2):
        raise ValueError(f"bounds must have shape ({d}, 2), got {arr.shape}")
    if not (arr[:, 0] < arr[:, 1]).all():
        raise ValueError("degenerate bounds: every dimension needs lo < hi")
    return arr


def lhs_sample(n: int, d: int, bounds, seed) -> np.ndarray:
    """Latin hypercube sample of ``n`` points in a ``d``-dimensional box.

    Per dimension the axis is split into ``n`` equal strata; each stratum
    receives exactly one point at a uniform position inside it. Deterministic
    for a fixed seed.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 points and d >= 1 dimensions")
    box = _as_bounds(bounds, d)
    rng = np.random.default_rng(seed)
    unit = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        unit[:, j] = (strata + rng.random(n)) / n
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


class Normalizer:
    """Per-column feature scaling with an exact algebraic inverse.

    ``minmax`` rescales each fitted column into [0, 1]; ``standard`` removes
    the column mean and divides by the population standard deviation;
    ``none`` is the identity. Columns that are constant under the fit pass
    through unchanged (with a warning) instead of producing NaNs.
    """

    def __init__(self, kind: str, shift: np.ndarray | None = None, scale: np.ndarray | None = None):
        if kind not in NORMALIZER_KINDS:
            raise ValueError(f"unknown normalizer kind {kind!r} (choose from {NORMALIZER_KINDS})")
        self.kind = kind
        self.shift = shift  # subtracted before scaling (min or mean)
        self.scale = scale  # divisor (range or stdev); 1.0 marks pass-through columns

    @classmethod
    def identity(cls) -> "Normalizer":
        return cls("none")

    @classmethod
    def fit(cls, kind: str, data: np.ndarray) -> "Normalizer":
        if kind == "none":
            return cls("none")
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"normalizer needs a batch of rows, got shape {data.shape}")
        if kind == "minmax":
            shift = data.min(axis=0)
            scale = data.max(axis=0) - shift
        elif kind == "standard":
            shift = data.mean(axis=0)
            scale = data.std(axis=0)  # population form: fitted mean 0, variance 1
        else:
            raise ValueError(f"unknown normalizer kind {kind!r}")
        constant = scale == 0.0
        if constant.any():
            cols = np.flatnonzero(constant).tolist()
            warnings.warn(
                f"{kind} normalizer: constant column(s) {cols} pass through unchanged",
                stacklevel=2,
            )
            shift = np.where(constant, 0.0, shift)
            scale = np.where(constant, 1.0, scale)
        return cls(kind, shift, scale)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "none":
            return x.copy()
        return (x - self.shift) / self.scale

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.kind == "none":
            return z.copy()
        return z * self.scale + self.shift

    def to_dict(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        return {"kind": self.kind, "shift": self.shift.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Normalizer":
        if doc["kind"] == "none":
            return cls("none")
        return cls(doc["kind"], np.asarray(doc["shift"], float), np.asarray(doc["scale"], float))


def load_csv(path, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """Read (input, response) rows from a comma-separated file.

    Every row must hold ``d1 + d2`` finite numeric fields; a single leading
    header row is detected and skipped. Returns C-contiguous ``(n, d1)``
    inputs and ``(n, d2)`` responses in row order.
    """
    path = Path(path)
    rows: list[list[float]] = []
    header: tuple[int, list[str]] | None = None
    with path.open(newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != d1 + d2:
                raise ValueError(f"{path}:{lineno}: expected {d1 + d2} fields, got {len(row)}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                if header is None and not rows:
                    header = (lineno, row)  # candidate header; only accepted if data rows follow
                    continue
                raise ValueError(f"{path}:{lineno}: non-numeric field in {row!r}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite field in {row!r}")
            rows.append(values)
    if header is not None and not rows:
        lineno, row = header
        raise ValueError(f"{path}:{lineno}: non-numeric field in {row!r}")
    if not rows:
        warnings.warn(f"{path}: no data rows found", stacklevel=2)
    log.debug("loaded %d rows from %s", len(rows), path)
    table = np.array(rows, dtype=float).reshape(len(rows), d1 + d2)
    return np.ascontiguousarray(table[:, :d1]), np.ascontiguousarray(table[:, d1:])


def write_csv(path, header, rows) -> Path:
    """Write the ``header`` row (none if empty), then ``rows``, comma-separated
    with CRLF line ends. Rows hold ints, strings and Python floats; a float is
    written as its shortest repr, so it reads back bit-exactly."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    return path


@dataclass(frozen=True)
class MultiFidelityDataset:
    """Paired low- and high-fidelity samples over a shared input box."""

    lf_x: np.ndarray
    lf_y: np.ndarray
    hf_x: np.ndarray
    hf_y: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        for name in ("lf_x", "lf_y", "hf_x", "hf_y", "bounds"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.lf_x.ndim != 2 or self.hf_x.ndim != 2 or self.lf_y.ndim != 2 or self.hf_y.ndim != 2:
            raise ValueError("sample arrays must be 2-D (rows of points)")
        if self.lf_x.shape[0] < 1 or self.hf_x.shape[0] < 1:
            raise ValueError("need at least one sample per fidelity")
        if self.lf_x.shape[1] != self.hf_x.shape[1]:
            raise ValueError("low- and high-fidelity inputs differ in dimension")
        if self.lf_y.shape[1] != self.hf_y.shape[1]:
            raise ValueError("low- and high-fidelity responses differ in dimension")
        if self.lf_x.shape[0] != self.lf_y.shape[0] or self.hf_x.shape[0] != self.hf_y.shape[0]:
            raise ValueError("inputs and responses differ in row count")
        _as_bounds(self.bounds, self.d1)
        for x in (self.lf_x, self.hf_x):
            if ((x < self.bounds[:, 0] - 1e-12) | (x > self.bounds[:, 1] + 1e-12)).any():
                raise ValueError("sample inputs fall outside the declared bounds")

    @property
    def d1(self) -> int:
        return self.lf_x.shape[1]

    @property
    def d2(self) -> int:
        return self.lf_y.shape[1]

    @property
    def n_lf(self) -> int:
        return self.lf_x.shape[0]

    @property
    def n_hf(self) -> int:
        return self.hf_x.shape[0]


def make_dataset(pair, n_lf: int, n_hf: int, seed, *, nested: bool = False) -> MultiFidelityDataset:
    """Draw a synthetic dataset from a benchmark pair.

    Low- and high-fidelity inputs come from independent Latin hypercube
    draws, so the two sets are generally unnested; ``nested=True`` instead
    picks the high-fidelity inputs as a random subset of the low-fidelity
    ones.
    """
    if n_lf < n_hf or n_hf < 1:
        raise ValueError("need n_lf >= n_hf >= 1")
    lf_seed, hf_seed, subset_seed = np.random.SeedSequence(seed).spawn(3)
    lf_x = lhs_sample(n_lf, pair.d1, pair.bounds, lf_seed)
    if nested:
        rng = np.random.default_rng(subset_seed)
        hf_x = lf_x[rng.choice(n_lf, size=n_hf, replace=False)]
    else:
        hf_x = lhs_sample(n_hf, pair.d1, pair.bounds, hf_seed)
    return MultiFidelityDataset(
        lf_x=lf_x,
        lf_y=pair.evaluate_lf(lf_x),
        hf_x=hf_x,
        hf_y=pair.evaluate_hf(hf_x),
        bounds=pair.bounds,
    )


def _subsample(rows, n: int | None, tag: str, seed) -> tuple[np.ndarray, np.ndarray]:
    """``n`` of the ``(x, y)`` rows (all of them if ``n`` is None), drawn
    without replacement; deterministic per seed."""
    x, y = rows
    if len(x) == 0:
        raise ValueError("need at least one row per fidelity")
    if n is None:
        return x, y
    if n < 1:
        raise ValueError(f"asked for {n} {tag}-fidelity rows, need at least 1")
    if n > len(x):
        raise ValueError(f"asked for {n} {tag}-fidelity rows, file has {len(x)}")
    idx = np.random.default_rng(seed).choice(len(x), size=n, replace=False)
    return x[idx], y[idx]


def dataset_from_rows(
    lf: tuple[np.ndarray, np.ndarray],
    hf: tuple[np.ndarray, np.ndarray],
    n_lf: int | None = None,
    n_hf: int | None = None,
    seed=0,
) -> MultiFidelityDataset:
    """Assemble a dataset from the ``(x, y)`` row arrays of each fidelity, as
    ``load_csv`` returns them, optionally subsampling ``n_lf`` / ``n_hf`` rows.

    The input box is the componentwise hull of all inputs.
    """
    lf_seed, hf_seed = np.random.SeedSequence(seed).spawn(2)
    lf_x, lf_y = _subsample(lf, n_lf, "low", lf_seed)
    hf_x, hf_y = _subsample(hf, n_hf, "high", hf_seed)
    all_x = np.vstack([lf_x, hf_x])
    bounds = np.column_stack([all_x.min(axis=0), all_x.max(axis=0)])
    # widen zero-extent dimensions so the box is valid: by 0.5, or by one ulp
    # where x +- 0.5 rounds back to x (from 2^52 on), within the float range
    flat = bounds[:, 0] == bounds[:, 1]
    x, top = bounds[flat, 0], np.finfo(float).max
    bounds[flat, 0] = np.minimum(x - 0.5, np.nextafter(x, -top))
    bounds[flat, 1] = np.maximum(x + 0.5, np.nextafter(x, top))
    return MultiFidelityDataset(lf_x=lf_x, lf_y=lf_y, hf_x=hf_x, hf_y=hf_y, bounds=bounds)


def save_snapshot(dataset: MultiFidelityDataset, directory, seed=None) -> dict[str, Path]:
    """Write a dataset as lf.csv / hf.csv plus a JSON sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for tag, x, y in (("lf", dataset.lf_x, dataset.lf_y), ("hf", dataset.hf_x, dataset.hf_y)):
        paths[tag] = write_csv(directory / f"{tag}.csv", None, np.hstack([x, y]).tolist())
    sidecar = directory / "dataset.json"
    sidecar.write_text(
        json.dumps(
            {
                "bounds": dataset.bounds.tolist(),
                "seed": seed,
                "n_lf": dataset.n_lf,
                "n_hf": dataset.n_hf,
                "d1": dataset.d1,
                "d2": dataset.d2,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    paths["sidecar"] = sidecar
    return paths
