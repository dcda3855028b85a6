"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, then runs units of
work through mdfgan's public API. Both are closed loops: one caller
waits for each result before it starts the next unit. Unit ``k`` of workload
seed ``s`` trains on seeds from ``s * SEED_STRIDE + k * runs_per_unit`` on,
so no unit repeats the inputs of another one in the same run and no trained
model can be reused.

Importing this module imports mdfgan; the benchmark times that import as
part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import mdfgan
import mdfgan.cli
from mdfgan import experiments

SEED_STRIDE = 1000
TEST_POINTS = 1000
_TEST_POINT_TAG = 7  # seed stream of the benchmark's own test points

_NN = (
    "nn.adam_step",
    "nn.DenseNetwork.forward",
    "nn.DenseNetwork.gradient",
    "nn.activations.apply",
    "nn.activations.backward",
)
_RUN = ("gan.pretrain_lf", "gan.train_adversarial", "gan.GanMdfModel.predict", "data.make_dataset", "data.lhs_sample")


@dataclass(frozen=True)
class Run:
    """One trained model: its variant and seed, which fix its inputs, and its outcome."""

    variant: str
    seed: int
    nrmse: float
    failed: bool
    lf_frozen_ok: bool


class TrainForrester1d:
    """The user's single-model path through the CLI, at --jobs 1: per unit,
    ``mdfgan train`` on one seed, then ``mdfgan predict`` on 1000 LHS points
    from a CSV file, then the predictions scored against the true
    high-fidelity function."""

    name = "train-forrester1d"
    runs_per_unit = 1
    min_units = 5
    must_call = (*_NN, *_RUN, "gan.save_checkpoint", "gan.load_checkpoint", "cli.main")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        pair = mdfgan.get("forrester1d")
        self.x_test = mdfgan.lhs_sample(
            TEST_POINTS, pair.d1, pair.bounds, np.random.SeedSequence([seed, _TEST_POINT_TAG])
        )
        self.y_test = pair.evaluate_hf(self.x_test)
        self.points = workdir / "points.csv"
        with self.points.open("w", encoding="utf-8") as fh:
            fh.write("x1\n")
            fh.writelines(f"{float(v)!r}\n" for v in self.x_test[:, 0])

    def run(self, k: int, tag: str):
        seed = self.seed * SEED_STRIDE + k
        out = self.workdir / f"{tag}{k}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = mdfgan.cli.main(
                ["train", "--benchmark", "forrester1d", "--il", "100", "--ih", "5",
                 "--seed", str(seed), "--out", str(out)]
            )
            if code == 0:
                code = mdfgan.cli.main(
                    ["predict", "--checkpoint", str(out / "checkpoint.json"),
                     "--csv-in", str(self.points), "--out", str(out)]
                )
        if code != 0:
            return seed, out, code, None, math.nan
        predictions = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)
        score = experiments.nrmse(self.y_test, predictions[:, 1:]) if predictions.shape == (TEST_POINTS, 2) else math.nan
        return seed, out, code, predictions, score

    def check(self, result) -> tuple[list[Run], list[str]]:
        seed, out, code, predictions, score = result
        problems = []
        frozen = True
        if code == 0:
            if predictions.shape != (TEST_POINTS, 2):
                problems.append(f"predictions.csv has shape {predictions.shape}, expected ({TEST_POINTS}, 2)")
            elif not np.array_equal(predictions[:, :1], self.x_test):
                problems.append("predictions.csv inputs differ from the test points")
            doc = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
            frozen = doc["model"]["lf_block"]["frozen"] is True
        shutil.rmtree(out, ignore_errors=True)
        return [Run("gan", seed, score, code != 0, frozen)], problems


class BaselinesSeparable20d:
    """The paper's ablation comparison on a 20-D pair whose time goes mostly
    to the adversarial phase: per unit, ``run_baselines`` on separable20d at
    I_L=200, I_H=64 with 300 pretraining epochs, two seeds per variant (gan,
    pgan, hf-only), on the --jobs 2 process pool."""

    name = "baselines-separable20d"
    runs_per_unit = 2
    min_units = 3
    must_call = (*_NN, *_RUN, "experiments.run_experiment", "experiments.train_hf_only")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.pair = mdfgan.get("separable20d")

    def run(self, k: int, tag: str):
        config = replace(
            self.pair.default_config, epochs_lf=300, seed=self.seed * SEED_STRIDE + k * self.runs_per_unit
        )
        return experiments.run_baselines(self.pair, 200, 64, config, n_repeats=self.runs_per_unit, n_jobs=2)

    def check(self, comparison) -> tuple[list[Run], list[str]]:
        runs = [
            Run(variant, r.seed, r.nrmse, r.failed, r.lf_frozen_ok)
            for variant, result in (("gan", comparison.gan), ("pgan", comparison.pgan), ("hf-only", comparison.hf_only))
            for r in result.records
        ]
        return runs, []


WORKLOADS = {w.name: w for w in (TrainForrester1d, BaselinesSeparable20d)}
