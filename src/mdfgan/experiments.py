"""Experiment harness: NRMSE metric, repeated runs, sweeps, and baselines.

A "run" is: draw a dataset for one seed, train a model, score it on fresh
Latin-hypercube test points against the true high-fidelity responses.
Sweeps repeat runs over seeds and over grid values of the sample budgets;
baselines train three variants (full model, no-supervised-trick ablation,
and a plain network fitted to the high-fidelity samples alone) on identical
per-seed data.

The seed is the unit of work. A table (a sweep, a baseline comparison, or
a direct ``run_experiment``: a table of one cell) runs one task per seed,
which runs every cell of that seed in cell order in one process; ``--jobs
N`` spreads those tasks over the one pool that ``_run_cells`` makes. The
task makes the seed's store of frozen LF blocks and runs each cell through
``run_experiment``. ``_execute_run`` alone reads and fills the store: a gan
or pgan run trains on a copy of the block for its (I_L, seed), or pretrains
one and stores a copy of it.
"""

from __future__ import annotations

import concurrent.futures
import copy
import os
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .benchmarks import BenchmarkPair
from .data import (MultiFidelityDataset, Normalizer, field_value, lhs_sample, make_dataset, sample_budget, stream,
                   write_csv, write_json)
from .gan import (
    HF_BATCH_CAP,
    GanMdfModel,
    TrainingConfig,
    TrainingDivergedError,
    check_adversarial_budget,
    fit_regression,
    layer_sizes,
    normalized_predict,
    pretrain_lf,
    train_adversarial,
)
from .nn import DenseNetwork, FrozenNetworkError

DEFAULT_TEST_SIZE = 1000
VARIANTS = ("gan", "pgan", "hf-only")


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
            "mean_nrmse": self.mean_nrmse if self.nrmses else None,
            "partial": self.partial,
            "runs": [
                {"seed": r.seed, "nrmse": None if r.failed else r.nrmse, "lf_frozen_ok": r.lf_frozen_ok,
                 "error": r.error}
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
        layer_sizes(dataset.d1, dataset.d2, config)[0],
        config.resolved_activations(),
        seed=stream(config.seed, "hf_only_net"),
    )
    input_norm = Normalizer.fit(config.normalizer, dataset.hf_x)
    output_norm = Normalizer.fit(config.normalizer, dataset.hf_y)
    fit_regression(
        net,
        input_norm.transform(dataset.hf_x),
        output_norm.transform(dataset.hf_y),
        config.lr_sup,
        config.epochs_lf,
        HF_BATCH_CAP,
        stream(config.seed, "hf_only_shuffle"),
        label="high-fidelity-only baseline",
    )
    return HfOnlyModel(net, input_norm, output_norm)


def _execute_run(
    pair: BenchmarkPair,
    n_lf: int,
    n_hf: int,
    config: TrainingConfig,
    lf_blocks: dict,
    run_seed: int,
    *,
    test_size: int,
    variant: str,
    nested: bool,
) -> RunRecord:
    """One seeded train-and-score run. Test points depend only on the run
    seed, so the three variants are scored on identical draws.

    ``lf_blocks`` holds the frozen LF blocks of this process by (I_L, seed).
    A gan or pgan run trains on a copy of its block; without one it
    pretrains and stores a copy before its adversarial phase. An hf-only
    run never reads the store.
    """
    cfg = replace(config, seed=run_seed, supervised_trick=config.supervised_trick and variant != "pgan")
    dataset = make_dataset(pair, n_lf, n_hf, run_seed, nested=nested)
    x_test = lhs_sample(test_size, pair.d1, pair.bounds, stream(run_seed, "test_points"))
    y_true = pair.evaluate_hf(x_test)

    start = time.perf_counter()
    lf_frozen_ok = True
    try:
        if variant == "hf-only":
            model = train_hf_only(dataset, cfg)
        else:
            model = GanMdfModel.build(dataset.d1, dataset.d2, cfg)
            model.fit_normalizers(dataset, cfg.normalizer)
            if (n_lf, run_seed) in lf_blocks:
                model.lf_block = copy.deepcopy(lf_blocks[n_lf, run_seed])
            else:
                pretrain_lf(model, dataset.lf_x, dataset.lf_y, cfg)
                lf_blocks[n_lf, run_seed] = copy.deepcopy(model.lf_block)
            train_adversarial(model, dataset.hf_x, dataset.hf_y, cfg)
        value = nrmse(y_true, model.predict(x_test))
        error = None
    except (TrainingDivergedError, FrozenNetworkError) as exc:
        value, error = float("nan"), str(exc)
        lf_frozen_ok = not isinstance(exc, FrozenNetworkError)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunRecord(run_seed, value, wall_ms, lf_frozen_ok, error)


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
    list with their error text and excluded from the mean. A direct call is
    a one-cell table. A seed task passes its store as ``_lf_blocks`` and
    runs its seeds here, in this process and in seed order.
    """
    if _lf_blocks is None:
        return _run_cells(pair, [(n_lf, n_hf, variant)], config, n_repeats, test_size, nested, n_jobs)[0]
    run = partial(
        _execute_run, pair, n_lf, n_hf, config, _lf_blocks, test_size=test_size, variant=variant, nested=nested
    )
    return ExperimentResult(pair.name, n_lf, n_hf, tuple(map(run, range(config.seed, config.seed + n_repeats))))


def _run_table_seed(pair, cells, config, seed: int, **kwargs) -> list[RunRecord]:
    """Every cell of a table for one seed, in cell order and in one process.

    The cells share this seed's frozen LF blocks, keyed by (I_L, seed):
    within one table the pair and the config are fixed, pretraining ignores
    ``supervised_trick``, and ``make_dataset`` draws the LF samples from the
    seed and I_L alone, so a block pretrained for one cell is the block any
    other cell would pretrain. The blocks are dropped when the seed is done.
    """
    lf_blocks: dict = {}
    cfg = replace(config, seed=seed)
    return [
        run_experiment(pair, n_lf, n_hf, cfg, 1, variant=variant, _lf_blocks=lf_blocks, **kwargs).records[0]
        for n_lf, n_hf, variant in cells
    ]


def _run_cells(
    pair, cells, config, n_repeats, test_size=DEFAULT_TEST_SIZE, nested=False, n_jobs=1
) -> list[ExperimentResult]:
    """One ``ExperimentResult`` per ``(n_lf, n_hf, variant)`` cell, in order,
    after checking every count and cell. The seed is the unit of work: one
    task per seed runs all the cells, in this process or on one pool of at
    most one worker per seed and per core, so no LF block leaves the
    process that pretrained it. The one place that makes a process pool."""
    n_repeats, test_size, n_jobs = (field_value(name, value, 1, {"min": 1}) for name, value in
                                    (("n_repeats", n_repeats), ("test_size", test_size), ("n_jobs", n_jobs)))
    cells = [(*sample_budget(n_lf, n_hf), field_value("variant", variant, "gan", {"choices": VARIANTS}))
             for n_lf, n_hf, variant in cells]
    for _, n_hf, variant in cells:
        if variant != "hf-only":
            check_adversarial_budget(n_hf)
    task = partial(_run_table_seed, pair, cells, config, test_size=test_size, nested=nested)
    seeds = range(config.seed, config.seed + n_repeats)
    workers = min(n_jobs, n_repeats, os.cpu_count() or 1)  # the pool forks all of them at its first task
    if workers > 1:  # reading the attribute imports multiprocessing, so one-process runs never load it
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(task, seeds))
    else:
        per_seed = list(map(task, seeds))
    return [ExperimentResult(pair.name, n_lf, n_hf, records) for (n_lf, n_hf, _), records in zip(cells, zip(*per_seed))]


def run_hf_sweep(
    pair: BenchmarkPair,
    n_lf: int,
    hf_grid,
    config: TrainingConfig,
    n_repeats: int = 10,
    **kwargs,
) -> list[ExperimentResult]:
    """Vary the high-fidelity budget at a fixed low-fidelity budget."""
    grid = field_value("hf_grid", [*hf_grid] if np.iterable(hf_grid) else hf_grid, (1,), {"min": 1})
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
    grid = field_value("lf_grid", [*lf_grid] if np.iterable(lf_grid) else lf_grid, (1,), {"min": 1})
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
    x = lhs_sample(field_value("n_points", n_points, 1, {"min": 1}), pair.d1, pair.bounds, seed)
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
    return write_json(path, {"results": [r.to_dict() for r in results]})


def write_scatter_csv(points: np.ndarray, path) -> Path:
    return write_csv(path, ["y_lf", "y_hf"], np.asarray(points, dtype=float).tolist())
