"""Acceptance suite: one test per release criterion, one verdict line each.

Runs everything at the documented budgets, so this module is the slow part
of the suite (about a minute: 54-58 s on a 2-core x86_64 host, nearly all
of it criteria 5-7).  The three training-heavy criteria share
module-scoped runs instead of retraining from scratch.  Verdict lines are
printed as they happen (visible with ``pytest -s``) and repeated in the
terminal summary.
"""

import time
import zlib

import numpy as np
import pytest

import conftest
from mdfgan import cli
from mdfgan.benchmarks import get
from mdfgan.data import Normalizer, lhs_sample
from mdfgan.experiments import VARIANTS, BaselineComparison, _run_cells, nrmse, run_experiment
from mdfgan.gan import train_adversarial
from mdfgan.nn import activations
from test_gan import scripted_five_stages, toy_problem
from test_gradient import check_net, random_net


def _report(num, ok, detail):
    line = f"criterion {num} [{'pass' if ok else 'FAIL'}]: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# -- shared heavy runs --------------------------------------------------------
#
# Criteria 5 and 6 run as one table, as ``run_baselines`` runs its cells: all
# three variants at I_L=100, I_H=5, then the GAN at I_H=2, which reuses the
# LF blocks pretrained at I_L=100 (they depend only on I_L and the seed).
# Criterion 7 reuses the GAN arm as its I_L=100 cell.  Criterion 9 audits
# the freeze flag over all of them.


@pytest.fixture(scope="module")
def table_runs():
    pair = get("forrester1d")
    cells = [(100, 5, v) for v in VARIANTS] + [(100, 2, "gan")]
    start = time.perf_counter()
    *arms, low = _run_cells(pair, cells, pair.default_config, 10)
    return BaselineComparison(*arms), low, time.perf_counter() - start


@pytest.fixture(scope="module")
def lf_sweep_runs(table_runs):
    pair = get("forrester1d")
    comparison = table_runs[0]
    start = time.perf_counter()
    cells = {
        n: run_experiment(pair, n, 5, pair.default_config, n_repeats=10)
        for n in (60, 20)
    }
    elapsed = time.perf_counter() - start
    means = {100: comparison.gan.mean_nrmse}
    means.update({n: cells[n].mean_nrmse for n in cells})
    fresh_records = [r for res in cells.values() for r in res.records]
    return means, fresh_records, elapsed


# -- criteria -----------------------------------------------------------------


def test_criterion_1_gradient_oracle():
    kinds = ("sigmoid", "leaky_relu", "ricker", "dft", "inverse_multiquadratic")
    start = time.perf_counter()
    worst = 0.0
    for kind in kinds:
        rng = np.random.default_rng(zlib.crc32(kind.encode()) + 1)
        for _ in range(20):
            worst = max(worst, check_net(random_net(kind, rng), rng))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-4 and elapsed < 30.0,
        f"max rel error {worst:.3e} over 5 kinds x 20 nets vs central FD "
        f"(tol 1e-4) in {elapsed:.1f} s (budget 30 s)",
    )


def test_criterion_2_metric_anchors():
    rng = np.random.default_rng(99)
    y = rng.normal(size=(40, 2))
    assert np.any(y != 0.0)
    self_err = nrmse(y, y)
    zero_err = nrmse(y, np.zeros_like(y))
    column = np.array([[1.0], [2.0], [3.0]])
    scaled = Normalizer.fit("minmax", column).transform(column).ravel()
    sig0 = float(activations.apply(activations.SIGMOID, np.array([0.0]))[0])
    ok = (
        abs(self_err) <= 1e-12
        and abs(zero_err - 1.0) <= 1e-12
        and scaled.tolist() == [0.0, 0.5, 1.0]
        and sig0 == 0.5
    )
    _report(
        2,
        ok,
        f"nrmse(y,y)={self_err:.1e}, nrmse(y,0)-1={zero_err - 1.0:.1e}, "
        f"minmax([1,2,3])={scaled.tolist()}, sigmoid(0)={sig0}",
    )


def test_criterion_3_lhs_stratification():
    bad = []
    designs = 0
    for n in (1, 4, 100):
        for d in (1, 6):
            bounds = np.tile([0.0, 1.0], (d, 1))
            for seed in range(10):
                points = lhs_sample(n, d, bounds, seed)
                designs += 1
                for j in range(d):
                    strata = np.floor(points[:, j] * n).astype(int)
                    strata = np.clip(strata, 0, n - 1)
                    if sorted(strata.tolist()) != list(range(n)):
                        bad.append((n, d, seed, j))
    _report(
        3,
        not bad,
        f"one point per stratum in all {designs} designs "
        f"(n in 1/4/100, d in 1/6, 10 seeds each)"
        + (f"; violations {bad[:3]}" if bad else ""),
    )


def test_criterion_4_five_stage_trace():
    model, hf_x, hf_y, config = toy_problem()
    expected_hf, expected_disc, _ = scripted_five_stages(model, hf_x, hf_y, config)
    train_adversarial(model, hf_x, hf_y, config)
    worst = max(
        float(np.max(np.abs(model.hf_block.params - expected_hf.params))),
        float(np.max(np.abs(model.discriminator.params - expected_disc.params))),
    )
    _report(
        4,
        worst < 1e-10,
        f"one iteration vs scripted five-stage update trace: "
        f"max |param diff| {worst:.2e} (tol 1e-10)",
    )


def test_criterion_5_ablation_direction(table_runs):
    comparison, _, elapsed = table_runs
    g = comparison.gan.mean_nrmse
    p = comparison.pgan.mean_nrmse
    h = comparison.hf_only.mean_nrmse
    ok = g < p and g < h and elapsed < 300.0
    _report(
        5,
        ok,
        f"forrester1d I_L=100 I_H=5, 10 repeats: mean NRMSE gan {g:.4f} "
        f"< no-supervised {p:.4f} and < hf-only {h:.4f} in {elapsed:.0f} s "
        f"(budget 300 s)",
    )


def test_criterion_6_low_hf_robustness(table_runs):
    comparison, low, elapsed = table_runs
    base = comparison.gan.mean_nrmse
    ok = low.mean_nrmse < 2.5 * base and elapsed < 600.0
    _report(
        6,
        ok,
        f"mean NRMSE {low.mean_nrmse:.4f} at I_H=2 vs {base:.4f} at I_H=5 "
        f"(ratio {low.mean_nrmse / base:.2f}, bound 2.5) in {elapsed:.0f} s "
        f"(budget 600 s)",
    )


def test_criterion_7_lf_sweep_stability(lf_sweep_runs):
    means, _, elapsed = lf_sweep_runs
    spread = max(means.values()) / min(means.values())
    ok = spread < 2.0 and elapsed < 600.0
    listing = ", ".join(f"I_L={n}: {means[n]:.4f}" for n in sorted(means, reverse=True))
    _report(
        7,
        ok,
        f"{listing}; max/min {spread:.2f} (bound 2.0), fresh cells in "
        f"{elapsed:.0f} s (budget 600 s, I_L=100 arm shared with criterion 5)",
    )


def test_criterion_8_sweep_determinism(tmp_path):
    args = [
        "sweep-hf", "--benchmark", "forrester1d", "--il", "40", "--ih", "5,2",
        "--repeats", "2", "--epochs-lf", "400", "--epochs-hf", "60",
        "--test-points", "200", "--seed", "0",
    ]
    assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
    assert cli.main([*args, "--out", str(tmp_path / "b")]) == 0

    def sans_wall(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    csv_same = sans_wall(tmp_path / "a" / "sweep_hf.csv") == sans_wall(
        tmp_path / "b" / "sweep_hf.csv"
    )
    json_same = (tmp_path / "a" / "sweep_hf_summary.json").read_bytes() == (
        tmp_path / "b" / "sweep_hf_summary.json"
    ).read_bytes()
    _report(
        8,
        csv_same and json_same,
        "sweep-hf twice with identical flags: result CSV identical minus "
        f"wall-clock column ({csv_same}), summary JSON byte-identical ({json_same})",
    )


def test_criterion_9_freezing_contract(table_runs, lf_sweep_runs):
    comparison, low, _ = table_runs
    records = [
        r
        for result in (comparison.gan, comparison.pgan, low)
        for r in result.records
    ]
    records += lf_sweep_runs[1]
    n_ok = sum(1 for r in records if r.lf_frozen_ok)
    _report(
        9,
        n_ok == len(records),
        f"LF-block checksum unchanged through adversarial training in "
        f"{n_ok}/{len(records)} runs from criteria 5-7",
    )
