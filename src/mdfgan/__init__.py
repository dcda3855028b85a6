"""Multi-fidelity data fusion with an adversarially trained surrogate.

The package fuses many cheap low-fidelity samples with a handful of
expensive high-fidelity ones: a low-fidelity network block is pretrained
and frozen, then a high-fidelity block learns the map from (input,
low-fidelity response) to the true response, sharpened by a discriminator
and interleaved supervised refinement steps.
"""

from .benchmarks import BenchmarkPair, get, registry
from .data import (
    MultiFidelityDataset,
    Normalizer,
    dataset_from_rows,
    lhs_sample,
    load_csv,
    make_dataset,
    save_snapshot,
)
from .experiments import (
    BaselineComparison,
    ExperimentResult,
    RunRecord,
    emit_correlation_scatter,
    nrmse,
    run_baselines,
    run_experiment,
    run_hf_sweep,
    run_lf_sweep,
    write_results_csv,
    write_scatter_csv,
    write_summary_json,
)
from .gan import (
    GanMdfModel,
    TraceRow,
    TrainingConfig,
    TrainingDivergedError,
    load_checkpoint,
    pretrain_lf,
    save_checkpoint,
    train,
    train_adversarial,
    write_loss_trace,
)
from .nn import (
    Activation,
    AdamState,
    DenseNetwork,
    FrozenNetworkError,
    NonFiniteError,
    adam_step,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AdamState",
    "BaselineComparison",
    "BenchmarkPair",
    "DenseNetwork",
    "ExperimentResult",
    "FrozenNetworkError",
    "GanMdfModel",
    "MultiFidelityDataset",
    "NonFiniteError",
    "Normalizer",
    "RunRecord",
    "TraceRow",
    "TrainingConfig",
    "TrainingDivergedError",
    "adam_step",
    "dataset_from_rows",
    "emit_correlation_scatter",
    "get",
    "lhs_sample",
    "load_checkpoint",
    "load_csv",
    "make_dataset",
    "nrmse",
    "pretrain_lf",
    "registry",
    "run_baselines",
    "run_experiment",
    "run_hf_sweep",
    "run_lf_sweep",
    "save_checkpoint",
    "save_snapshot",
    "train",
    "train_adversarial",
    "write_loss_trace",
    "write_results_csv",
    "write_scatter_csv",
    "write_summary_json",
]
