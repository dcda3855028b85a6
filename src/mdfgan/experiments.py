"""Experiment harness: NRMSE metric, repeated runs, sweeps, and baselines.

A "run" is: draw a dataset for one seed, train a model, score it on fresh
Latin-hypercube test points against the true high-fidelity responses.
Sweeps repeat runs over seeds and over grid values of the sample budgets;
baselines train three variants (full model, no-supervised-trick ablation,
and a plain network fitted to the high-fidelity samples alone) on identical
per-seed data.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .benchmarks import BenchmarkPair
from .data import MultiFidelityDataset, Normalizer, lhs_sample, make_dataset, write_csv
from .gan import (
    HF_BATCH_CAP,
    GanMdfModel,
    TrainingConfig,
    TrainingDivergedError,
    fit_regression,
    normalized_predict,
    pretrain_lf,
    train_adversarial,
)
from .nn import DenseNetwork, FrozenNetworkError

DEFAULT_TEST_SIZE = 1000
VARIANTS = ("gan", "pgan", "hf-only")

# seed stream tags, combined with the per-run seed
_SEED_TEST_POINTS = 101
_SEED_HF_ONLY_NET = 102
_SEED_HF_ONLY_SHUFFLE = 103


def nrmse(truth, pred) -> float:
    """Normalized root mean square error of matching ``(n, d)`` row batches.

    sqrt(sum of squared errors) over sqrt(sum of squared truth norms); the
    per-sample 1/N factors cancel. Zero for a perfect predictor, one for a
    predictor that always answers zero.
    """
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.ndim != 2 or truth.shape != pred.shape or truth.shape[0] == 0:
        raise ValueError(f"need matching non-empty (n, d) shapes, got {truth.shape} and {pred.shape}")
    denom = np.sqrt((truth**2).sum())
    if denom == 0.0:
        raise ValueError("all-zero truth: NRMSE normalization is undefined")
    return float(np.sqrt(((truth - pred) ** 2).sum()) / denom)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of a single seeded run."""

    seed: int
    nrmse: float
    wall_ms: float
    lf_frozen_ok: bool
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated runs for one (benchmark, n_lf, n_hf) cell."""

    benchmark: str
    n_lf: int
    n_hf: int
    records: tuple[RunRecord, ...]

    @property
    def seeds(self) -> list[int]:
        return [r.seed for r in self.records]

    @property
    def nrmses(self) -> list[float]:
        return [r.nrmse for r in self.records if not r.failed]

    @property
    def mean_nrmse(self) -> float:
        values = self.nrmses
        return float(np.mean(values)) if values else float("nan")

    @property
    def partial(self) -> bool:
        """True when at least one repeat failed and was excluded from the mean."""
        return any(r.failed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "i_l": self.n_lf,
            "i_h": self.n_hf,
            "n_repeats": len(self.records),
            "mean_nrmse": self.mean_nrmse,
            "partial": self.partial,
            "runs": [
                {"seed": r.seed, "nrmse": r.nrmse, "lf_frozen_ok": r.lf_frozen_ok, "error": r.error}
                for r in self.records
            ],
        }


class HfOnlyModel:
    """Baseline: one dense network fitted to the high-fidelity samples alone."""

    def __init__(self, net: DenseNetwork, input_norm: Normalizer, output_norm: Normalizer):
        self.net = net
        self.input_norm = input_norm
        self.output_norm = output_norm

    def predict(self, inputs) -> np.ndarray:
        return normalized_predict(
            lambda z: self.net.forward(z)[0], inputs, self.net.input_width, self.input_norm, self.output_norm
        )


def train_hf_only(dataset: MultiFidelityDataset, config: TrainingConfig) -> HfOnlyModel:
    """Fit the baseline on (hf_x, hf_y) with the supervised learning rate,
    for as many epochs as the low-fidelity pretraining budget."""
    net = DenseNetwork(
        [dataset.d1, *config.hidden_sizes, dataset.d2],
        config.resolved_activations(),
        seed=np.random.default_rng(np.random.SeedSequence([config.seed, _SEED_HF_ONLY_NET])),
    )
    input_norm = Normalizer.fit(config.normalizer, dataset.hf_x)
    output_norm = Normalizer.fit(config.normalizer, dataset.hf_y)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SEED_HF_ONLY_SHUFFLE]))
    fit_regression(
        net,
        input_norm.transform(dataset.hf_x),
        output_norm.transform(dataset.hf_y),
        config.lr_sup,
        config.epochs_lf,
        HF_BATCH_CAP,
        rng,
        label="high-fidelity-only baseline",
    )
    return HfOnlyModel(net, input_norm, output_norm)


def _execute_run(
    pair: BenchmarkPair,
    n_lf: int,
    n_hf: int,
    config: TrainingConfig,
    run_seed: int,
    lf_block: DenseNetwork | None,
    test_size: int,
    variant: str,
    nested: bool,
) -> tuple[RunRecord, DenseNetwork | None]:
    """One seeded train-and-score run. Test points depend only on the run
    seed, so the three variants are scored on identical draws.

    A gan or pgan run given the frozen ``lf_block`` of its (I_L, seed)
    trains on a copy of it instead of pretraining. Returns the record and
    the block this run pretrained, or None.
    """
    cfg = replace(config, seed=run_seed)
    if variant == "pgan":
        cfg = replace(cfg, supervised_trick=False)
    dataset = make_dataset(pair, n_lf, n_hf, run_seed, nested=nested)
    x_test = lhs_sample(
        test_size, pair.d1, pair.bounds, np.random.SeedSequence([run_seed, _SEED_TEST_POINTS])
    )
    y_true = pair.evaluate_hf(x_test)

    start = time.perf_counter()
    lf_frozen_ok = True
    pretrained = None
    try:
        if variant == "hf-only":
            model = train_hf_only(dataset, cfg)
        else:
            model = GanMdfModel.build(dataset.d1, dataset.d2, cfg)
            model.fit_normalizers(dataset, cfg.normalizer)
            if lf_block is not None:
                model.lf_block = lf_block.copy()
            else:
                pretrain_lf(model, dataset.lf_x, dataset.lf_y, cfg)
                pretrained = model.lf_block.copy()
            train_adversarial(model, dataset.hf_x, dataset.hf_y, cfg)
        value = nrmse(y_true, model.predict(x_test))
        error = None
    except (TrainingDivergedError, FrozenNetworkError) as exc:
        value, error = float("nan"), str(exc)
        lf_frozen_ok = not isinstance(exc, FrozenNetworkError)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunRecord(run_seed, value, wall_ms, lf_frozen_ok, error), pretrained


def _check_cell(n_lf: int, n_hf: int, variant: str) -> None:
    """Reject a grid cell that no run could train, before any run starts."""
    if n_lf < n_hf or n_hf < 1:
        raise ValueError(f"need n_lf >= n_hf >= 1, got I_L={n_lf} I_H={n_hf}")
    if variant != "hf-only" and n_hf < 2:
        raise ValueError(f"adversarial training needs at least two high-fidelity samples, got I_H={n_hf}")


def run_experiment(
    pair: BenchmarkPair,
    n_lf: int,
    n_hf: int,
    config: TrainingConfig,
    n_repeats: int = 10,
    test_size: int = DEFAULT_TEST_SIZE,
    variant: str = "gan",
    nested: bool = False,
    n_jobs: int = 1,
    *,
    _lf_blocks: dict | None = None,
) -> ExperimentResult:
    """Repeat a run ``n_repeats`` times with seeds base, base+1, ...

    The base seed is ``config.seed``. Failed repeats are kept in the record
    list with their error text and excluded from the mean.
    """
    if n_repeats < 1 or test_size < 1 or n_jobs < 1:
        raise ValueError("need n_repeats >= 1, test_size >= 1 and n_jobs >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _check_cell(n_lf, n_hf, variant)
    lf_blocks = {} if _lf_blocks is None else _lf_blocks
    seeds = range(config.seed, config.seed + n_repeats)
    given = [None if variant == "hf-only" else lf_blocks.get((n_lf, seed)) for seed in seeds]
    run = partial(_execute_run, pair, n_lf, n_hf, config, test_size=test_size, variant=variant, nested=nested)
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = list(pool.map(run, seeds, given))
    else:
        outcomes = map(run, seeds, given)
    records = []
    for seed, (record, pretrained) in zip(seeds, outcomes):
        if pretrained is not None:
            lf_blocks[n_lf, seed] = pretrained
        records.append(record)
    return ExperimentResult(pair.name, n_lf, n_hf, tuple(records))


def _run_cells(pair, cells, config, n_repeats, **kwargs) -> list[ExperimentResult]:
    """``run_experiment`` on each ``(n_lf, n_hf, variant)`` cell in order,
    after checking every cell. The cells share the frozen LF blocks they
    pretrain, keyed by (I_L, seed): within one table the pair and the config
    are fixed, pretraining ignores ``supervised_trick``, and ``make_dataset``
    draws the LF samples from the seed and I_L alone, so a block pretrained
    for one cell is the block any other cell would pretrain."""
    for n_lf, n_hf, variant in cells:
        _check_cell(n_lf, n_hf, variant)
    lf_blocks: dict = {}
    return [
        run_experiment(pair, n_lf, n_hf, config, n_repeats, variant=variant, _lf_blocks=lf_blocks, **kwargs)
        for n_lf, n_hf, variant in cells
    ]


def run_hf_sweep(
    pair: BenchmarkPair,
    n_lf: int,
    hf_grid,
    config: TrainingConfig,
    n_repeats: int = 10,
    **kwargs,
) -> list[ExperimentResult]:
    """Vary the high-fidelity budget at a fixed low-fidelity budget."""
    grid = [int(v) for v in hf_grid]
    if not grid:
        raise ValueError("empty high-fidelity grid")
    return _run_cells(pair, [(n_lf, n_hf, "gan") for n_hf in grid], config, n_repeats, **kwargs)


def run_lf_sweep(
    pair: BenchmarkPair,
    lf_grid,
    n_hf: int,
    config: TrainingConfig,
    n_repeats: int = 10,
    **kwargs,
) -> list[ExperimentResult]:
    """Vary the low-fidelity budget at a fixed high-fidelity budget.

    The default grid scales with the input dimension: 100d down to 20d.
    """
    if lf_grid is None:
        lf_grid = [m * pair.d1 for m in (100, 80, 60, 40, 20)]
    grid = [int(v) for v in lf_grid]
    if not grid:
        raise ValueError("empty low-fidelity grid")
    return _run_cells(pair, [(n_lf, n_hf, "gan") for n_lf in grid], config, n_repeats, **kwargs)


@dataclass(frozen=True)
class BaselineComparison:
    """Mean-NRMSE triple for the full model and its two ablations."""

    gan: ExperimentResult
    pgan: ExperimentResult
    hf_only: ExperimentResult

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).to_dict() for f in fields(self)}


def run_baselines(
    pair: BenchmarkPair,
    n_lf: int,
    n_hf: int,
    config: TrainingConfig,
    n_repeats: int = 10,
    **kwargs,
) -> BaselineComparison:
    """Train the three variants on identical per-seed datasets and test draws."""
    cells = [(n_lf, n_hf, variant) for variant in VARIANTS]
    return BaselineComparison(*_run_cells(pair, cells, config, n_repeats, **kwargs))


def emit_correlation_scatter(pair: BenchmarkPair, n_points: int, seed=0) -> np.ndarray:
    """Paired (low-fidelity, high-fidelity) responses at shared LHS inputs.

    Returns an (n_points, 2) array of the first response component; plotting
    it reveals how correlated the two fidelities are.
    """
    if n_points < 1:
        raise ValueError("need n_points >= 1")
    x = lhs_sample(n_points, pair.d1, pair.bounds, seed)
    return np.column_stack([pair.evaluate_lf(x)[:, 0], pair.evaluate_hf(x)[:, 0]])


# -- artifact writers ------------------------------------------------------------


def write_results_csv(results: list[ExperimentResult], path) -> Path:
    """One row per run: benchmark, i_l, i_h, seed, nrmse, wall_ms."""
    return write_csv(
        path,
        ["benchmark", "i_l", "i_h", "seed", "nrmse", "wall_ms"],
        (
            [result.benchmark, result.n_lf, result.n_hf, rec.seed, rec.nrmse, rec.wall_ms]
            for result in results
            for rec in result.records
        ),
    )


def write_summary_json(results: list[ExperimentResult], path) -> Path:
    """Mean NRMSE per (i_l, i_h) cell with per-seed detail; no wall-clock
    fields, so reruns with the same seed are byte-identical."""
    path = Path(path)
    path.write_text(json.dumps({"results": [r.to_dict() for r in results]}, indent=2) + "\n", encoding="utf-8")
    return path


def write_scatter_csv(points: np.ndarray, path) -> Path:
    return write_csv(path, ["y_lf", "y_hf"], np.asarray(points, dtype=float).tolist())
