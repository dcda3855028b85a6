"""Sampling, normalization, dataset assembly, and the CSV/JSON artifact i/o of multi-fidelity experiments.

A dataset is its samples alone: an input box is a benchmark pair's, which ``save_snapshot`` records if handed it.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import numbers
import os
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
    n, d = (field_value(name, value, 1, {"min": 1}) for name, value in (("n", n), ("d", d)))
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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            if kind == "minmax":
                shift = data.min(axis=0)
                scale = data.max(axis=0) - shift
            elif kind == "standard":
                shift = data.mean(axis=0)
                scale = data.std(axis=0)  # population form: fitted mean 0, variance 1
            else:
                raise ValueError(f"unknown normalizer kind {kind!r}")
        overflow = ~(np.isfinite(shift) & np.isfinite(scale))
        if overflow.any():
            cols = np.flatnonzero(overflow).tolist()
            raise ValueError(f"{kind} normalizer: column(s) {cols} spread past the float range")
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
    def from_dict(cls, doc: dict, what: str = "normalizer") -> "Normalizer":
        if json_object(doc, what, ("kind",))["kind"] == "none":
            return cls("none")
        json_object(doc, what, ("shift", "scale"))
        shift, scale = (np.array(field_value(f"{what} {key}", doc[key], (0.0,), {})) for key in ("shift", "scale"))
        if not scale.all():  # fit never writes a zero scale; a constant column gets 1.0
            raise ValueError(f"{what} scale must be nonzero, got 0 at index {int(np.flatnonzero(scale == 0)[0])}")
        return cls(doc["kind"], shift, scale)


def load_csv(path, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """Read (input, response) rows from a comma-separated file.

    Every row must hold ``d1 + d2`` finite numeric fields; a single leading
    header row is detected and skipped. Returns C-contiguous ``(n, d1)``
    inputs and ``(n, d2)`` responses in row order.
    """
    path = Path(path)
    rows: list[list[float]] = []
    header: tuple[int, list[str]] | None = None
    lines = io.StringIO(read_text(path, "CSV file"), newline="")  # split as csv needs, CRs kept
    for lineno, row in enumerate(csv.reader(lines), start=1):
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


def read_text(path, what: str) -> str:
    """The text of the file at ``path``, read as UTF-8 with a leading BOM
    dropped and line ends kept; a file that cannot be read or decoded is a
    ValueError that names ``what`` and the file, and for a decode error the
    line and byte offset of the first bad byte."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{what} {str(path)!r} is not UTF-8 text: line {line}, byte {exc.start} is {exc.reason}"
        ) from None


def _write_text(path, text: str) -> Path:
    """Write ``text`` to a sibling file and rename it over ``path``, so that
    a failed write never leaves a truncated file where a good one was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_csv(path, header, rows) -> Path:
    """Write the ``header`` row (none if empty), then ``rows``, comma-separated
    with CRLF line ends. Rows hold ints, strings and Python floats; a float is
    written as its shortest repr, so it reads back bit-exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    return _write_text(path, buf.getvalue())


def write_json(path, doc, indent: int | None = 2) -> Path:
    """Write ``doc`` as standard JSON plus a newline; a NaN or infinity
    raises ``ValueError`` instead of reaching the file."""
    return _write_text(path, json.dumps(doc, indent=indent, allow_nan=False) + "\n")


def json_object(doc, what: str, keys=()) -> dict:
    """``doc`` if it is a JSON object that holds each of ``keys``; else a
    ValueError that names ``what`` and the first missing key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"missing {what} key {key!r}")
    return doc


def field_value(name: str, value, default, meta):
    """``value`` under the one rule for a value from outside the program: a config field, a checkpoint number, a
    flag, a seed or a count. It has the type of ``default`` (a bool is no int, a numpy int is the int it holds, an
    int is taken as a float, and a tuple takes a non-empty list or tuple of such items, a bad one named by its
    index); a float is finite, a number in [meta["min"], inf) and above meta["above"], a text in meta["choices"]."""
    if isinstance(default, tuple):
        if isinstance(value, str):  # a str is a sequence of characters, not of items
            raise ValueError(f"{name} must be a sequence of items, not the string {value!r}")
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{name} must be a non-empty list or tuple, got {value!r}")
        item = default[0]
        if type(item) is float and not meta and set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            return tuple(value)  # what the loop returns, at C speed for a long vector such as params
        items = []
        for index, v in enumerate(value):
            try:
                items.append(field_value(f"{name} item", v, item, meta))
            except ValueError as exc:
                raise ValueError(f"{exc} at index {index}") from None
        return tuple(items)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        value = int(value)
    kind = type(default)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            raise ValueError(f"{name} must be finite, got an int of {value.bit_length()} bits") from None
    if "min" in meta and not meta["min"] <= value < math.inf:  # also false for nan
        raise ValueError(f"{name} must be finite and at least {meta['min']}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if "above" in meta and not value > meta["above"]:
        raise ValueError(f"{name} must be above {meta['above']}, got {value!r}")
    if "choices" in meta and value not in meta["choices"]:
        raise ValueError(f"{name} must be one of {meta['choices']}, got {value!r}")
    return value


@dataclass(frozen=True)
class MultiFidelityDataset:
    """Paired low- and high-fidelity samples, each as ``(n, d1)`` inputs and
    ``(n, d2)`` responses; an input box is the benchmark pair's, not theirs."""

    lf_x: np.ndarray
    lf_y: np.ndarray
    hf_x: np.ndarray
    hf_y: np.ndarray

    def __post_init__(self):
        for name in ("lf_x", "lf_y", "hf_x", "hf_y"):
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


def sample_budget(n_lf, n_hf) -> tuple[int, int]:
    """``(n_lf, n_hf)``, each a count under ``field_value``'s rule, if a
    dataset can hold them: no fewer low- than high-fidelity samples."""
    n_lf, n_hf = (field_value(name, value, 1, {"min": 1}) for name, value in (("n_lf", n_lf), ("n_hf", n_hf)))
    if n_lf < n_hf:
        raise ValueError(f"need n_lf >= n_hf, got n_lf={n_lf} and n_hf={n_hf}")
    return n_lf, n_hf


def make_dataset(pair, n_lf: int, n_hf: int, seed, *, nested: bool = False) -> MultiFidelityDataset:
    """Draw a synthetic dataset from a benchmark pair.

    Low- and high-fidelity inputs come from independent Latin hypercube
    draws, so the two sets are generally unnested; ``nested=True`` instead
    picks the high-fidelity inputs as a random subset of the low-fidelity
    ones.
    """
    n_lf, n_hf = sample_budget(n_lf, n_hf)
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
    )


def _subsample(rows, n: int | None, name: str, seed) -> tuple[np.ndarray, np.ndarray]:
    """``n`` (the count ``name``) of the ``(x, y)`` rows, or all of them if
    ``n`` is None, drawn without replacement; deterministic per seed."""
    x, y = rows
    if n is None:
        return x, y
    n = field_value(name, n, 1, {"min": 1})
    if n > len(x):
        raise ValueError(f"{name} asks for {n} rows, file has {len(x)}")
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
    The rows are kept as given: no input box is assumed or derived."""
    lf_seed, hf_seed = np.random.SeedSequence(seed).spawn(2)
    lf_x, lf_y = _subsample(lf, n_lf, "n_lf", lf_seed)
    hf_x, hf_y = _subsample(hf, n_hf, "n_hf", hf_seed)
    return MultiFidelityDataset(lf_x=lf_x, lf_y=lf_y, hf_x=hf_x, hf_y=hf_y)


SNAPSHOT_FILES = {"lf": "lf.csv", "hf": "hf.csv", "sidecar": "dataset.json"}  # save_snapshot's files by key


def save_snapshot(dataset: MultiFidelityDataset, directory, seed=None, bounds=None) -> dict[str, Path]:
    """Write a dataset as lf.csv / hf.csv plus a JSON sidecar that records
    ``seed``, the shape, and ``bounds``: the ``(d1, 2)`` box that the
    samples were drawn from (a ``(2,)`` box applies to every dimension), or
    null when there is none, as for rows read from CSV files."""
    box = None if bounds is None else _as_bounds(bounds, dataset.d1).tolist()  # checked before any write
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {key: directory / name for key, name in SNAPSHOT_FILES.items()}
    for tag, x, y in (("lf", dataset.lf_x, dataset.lf_y), ("hf", dataset.hf_x, dataset.hf_y)):
        write_csv(paths[tag], None, np.hstack([x, y]).tolist())
    write_json(
        paths["sidecar"],
        {
            "bounds": box,
            "seed": seed,
            "n_lf": dataset.n_lf,
            "n_hf": dataset.n_hf,
            "d1": dataset.d1,
            "d2": dataset.d2,
        },
    )
    return paths
