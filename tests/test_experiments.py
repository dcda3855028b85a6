import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mdfgan import experiments
from mdfgan.benchmarks import BenchmarkPair, get
from mdfgan.experiments import (
    VARIANTS,
    BaselineComparison,
    ExperimentResult,
    RunRecord,
    emit_correlation_scatter,
    run_baselines,
    run_experiment,
    run_hf_sweep,
    run_lf_sweep,
    train_hf_only,
    write_results_csv,
    write_scatter_csv,
    write_summary_json,
)
from mdfgan.data import make_dataset
from mdfgan.gan import TrainingConfig, train


def fast_config(**overrides):
    """Small budget so a run takes milliseconds, not seconds."""
    base = dict(epochs_lf=40, epochs_hf=10, hidden_sizes=(8,), seed=0)
    base.update(overrides)
    return TrainingConfig(**base)


def identity_pair():
    return BenchmarkPair(
        "identity1d", 1, 1, np.array([[0.0, 1.0]]),
        lambda x: 1.0 + x[:, 0], lambda x: 1.0 + x[:, 0], TrainingConfig(),
    )


def exploding_pair():
    """Responses so large that the squared loss overflows immediately."""
    return BenchmarkPair(
        "exploding1d", 1, 1, np.array([[0.0, 1.0]]),
        lambda x: np.full(x.shape[0], 1e200), lambda x: np.full(x.shape[0], 1e200),
        TrainingConfig(),
    )


def test_single_repeat_mean_equals_the_run():
    res = run_experiment(get("forrester1d"), 20, 3, fast_config(), n_repeats=1, test_size=50)
    assert len(res.records) == 1
    assert res.mean_nrmse == res.records[0].nrmse
    assert not res.partial


def test_seeds_count_up_from_the_base():
    res = run_experiment(get("forrester1d"), 20, 3, fast_config(seed=7), n_repeats=3, test_size=20)
    assert res.seeds == [7, 8, 9]


def test_repeated_invocations_are_identical():
    cfg = fast_config(seed=3)
    pair = get("forrester1d")
    a = run_experiment(pair, 20, 3, cfg, n_repeats=3, test_size=30)
    b = run_experiment(pair, 20, 3, cfg, n_repeats=3, test_size=30)
    assert [r.nrmse for r in a.records] == [r.nrmse for r in b.records]


def test_mean_lies_between_extremes():
    res = run_experiment(get("forrester1d"), 20, 3, fast_config(), n_repeats=4, test_size=30)
    values = res.nrmses
    assert min(values) <= res.mean_nrmse <= max(values)
    assert all(v >= 0 for v in values)


@pytest.mark.filterwarnings("ignore:overflow")
def test_failed_repeats_are_recorded_not_dropped():
    res = run_experiment(exploding_pair(), 10, 2, fast_config(), n_repeats=2, test_size=10)
    assert res.partial
    assert all(r.failed for r in res.records)
    assert all("non-finite" in r.error for r in res.records)
    assert np.isnan(res.mean_nrmse)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_preactivation_is_a_failed_repeat():
    """A learning rate of 1e308 pushes the weights so far that the next
    forward pass overflows a pre-activation: each repeat is recorded as
    diverged instead of aborting the whole experiment."""
    res = run_experiment(get("forrester1d"), 20, 3, fast_config(lr_lf=1e308), n_repeats=2, test_size=10)
    assert [r.failed for r in res.records] == [True, True]
    assert all("pretraining diverged at epoch 1: non-finite input" in r.error for r in res.records)


def test_run_record_failed_flag():
    ok = RunRecord(0, 0.5, 1.0, True)
    bad = RunRecord(1, float("nan"), 1.0, True, error="boom")
    assert not ok.failed and bad.failed
    res = ExperimentResult("x", 10, 2, (ok, bad))
    assert res.partial
    assert res.mean_nrmse == 0.5  # failures excluded from the mean


def test_rejects_bad_arguments():
    pair = get("forrester1d")
    with pytest.raises(ValueError, match="n_repeats"):
        run_experiment(pair, 10, 2, fast_config(), n_repeats=0)
    with pytest.raises(ValueError, match="variant"):
        run_experiment(pair, 10, 2, fast_config(), variant="kriging")


def test_hf_sweep_produces_one_result_per_grid_point():
    results = run_hf_sweep(get("forrester1d"), 20, [3, 2], fast_config(), n_repeats=2, test_size=20)
    assert [(r.n_lf, r.n_hf) for r in results] == [(20, 3), (20, 2)]


def test_lf_sweep_default_grid_scales_with_dimension():
    results = run_lf_sweep(get("currin2d"), None, 3, fast_config(), n_repeats=1, test_size=20)
    assert [r.n_lf for r in results] == [200, 160, 120, 80, 40]


def test_sweep_grid_cells_are_independent():
    """Dropping a grid point must not change the remaining cells."""
    pair = get("forrester1d")
    cfg = fast_config(seed=5)
    full = run_hf_sweep(pair, 20, [4, 3, 2], cfg, n_repeats=2, test_size=25)
    pruned = run_hf_sweep(pair, 20, [4, 2], cfg, n_repeats=2, test_size=25)
    assert [r.nrmse for r in full[0].records] == [r.nrmse for r in pruned[0].records]
    assert [r.nrmse for r in full[2].records] == [r.nrmse for r in pruned[1].records]


def test_empty_grids_rejected():
    with pytest.raises(ValueError, match="grid"):
        run_hf_sweep(get("forrester1d"), 20, [], fast_config())
    with pytest.raises(ValueError, match="grid"):
        run_lf_sweep(get("forrester1d"), [], 3, fast_config())


def test_baselines_share_seeds_across_variants():
    comp = run_baselines(get("forrester1d"), 20, 3, fast_config(seed=2), n_repeats=2, test_size=20)
    assert isinstance(comp, BaselineComparison)
    assert comp.gan.seeds == comp.pgan.seeds == comp.hf_only.seeds == [2, 3]
    doc = comp.to_dict()
    assert set(doc) == {"gan", "pgan", "hf_only"}


def test_hf_only_baseline_handles_two_samples():
    ds = make_dataset(get("forrester1d"), 10, 2, seed=4)
    model = train_hf_only(ds, fast_config())
    pred = model.predict(np.linspace(0, 1, 10)[:, None])
    assert np.isfinite(pred).all()


def test_hf_only_predict_normalizes_like_the_gan_model():
    ds = make_dataset(get("forrester1d"), 10, 4, seed=4)
    model = train_hf_only(ds, fast_config(normalizer="standard"))
    x = np.linspace(0, 1, 5)[:, None]
    raw, _ = model.net.forward(model.input_norm.transform(x))
    np.testing.assert_array_equal(model.predict(x), model.output_norm.inverse_transform(raw))
    np.testing.assert_allclose(model.predict(x[0]), model.predict(x)[0], atol=1e-12)
    with pytest.raises(ValueError, match="width"):
        model.predict(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "name, n_lf, n_hf, epochs_lf, digest",
    [
        # sigmoid hidden layers, one batch of all five samples per epoch
        ("forrester1d", 100, 5, 150, "8d2b780d7fc1462950b3c89e245cbbdca3442c670c0800f361e989dbc787f148"),
        # leaky_relu hidden layers, standard normalizer, shuffled batches (I_H > 32)
        ("separable20d", 80, 40, 60, "cfacfdaef053f4c4d32889481b0b292faa8d0a871ee365b0c07d0bf21912bd42"),
    ],
    ids=["forrester1d-5-150", "separable20d-40-60"],
)
def test_train_hf_only_digest_is_pinned(name, n_lf, n_hf, epochs_lf, digest):
    """SHA-256 over the trained parameter vector of the hf-only baseline:
    any change to the arithmetic of its forward pass, gradient, Adam step,
    loss or shuffles shows."""
    pair = get(name)
    ds = make_dataset(pair, n_lf, n_hf, seed=3)
    model = train_hf_only(ds, replace(pair.default_config, epochs_lf=epochs_lf, seed=3))
    assert hashlib.sha256(model.net.params.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("variant", ["gan", "hf-only"])
def test_predict_names_an_input_the_normalizer_cannot_scale(variant):
    """A finite input that the fitted standard normalizer scales past the
    float range is bad input: a ValueError that names the row, raised
    before the network runs and without a RuntimeWarning."""
    ds = make_dataset(get("forrester1d"), 10, 4, seed=4)
    cfg = fast_config(normalizer="standard")
    model = train(ds, cfg)[0] if variant == "gan" else train_hf_only(ds, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            model.predict(np.array([[0.5], [1e308]]))
    assert str(info.value) == (
        "input row 1 [1e+308] is out of range: the input normalizer maps it to a non-finite value"
    )


@pytest.mark.parametrize("variant", ["gan", "hf-only"])
def test_predict_names_an_input_the_network_overflows_on(variant):
    """Without a normalizer a finite but huge input overflows in the first
    layer's product; that is bad input too: a ValueError naming the row, not
    an internal activation, and no RuntimeWarning."""
    ds = make_dataset(get("separable20d"), 10, 4, seed=4)
    cfg = fast_config(normalizer="none", hidden_activations=("leaky_relu",))
    model = train(ds, cfg)[0] if variant == "gan" else train_hf_only(ds, cfg)
    inputs = np.array([np.full(20, 0.5), np.full(20, 1e308)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            model.predict(inputs)
    assert str(info.value) == f"input row 1 {inputs[1].tolist()} is out of range: the network overflows on it"
    assert model.predict(inputs[:1]).shape == (1, 1)


def test_hf_only_run_records_trivially_keep_lf_frozen():
    res = run_experiment(get("forrester1d"), 10, 2, fast_config(), n_repeats=1,
                         test_size=10, variant="hf-only")
    assert res.records[0].lf_frozen_ok


def test_gan_runs_verify_the_lf_checksum():
    res = run_experiment(get("forrester1d"), 15, 3, fast_config(), n_repeats=2, test_size=10)
    assert all(r.lf_frozen_ok for r in res.records)


def test_a_changed_lf_block_is_recorded_as_not_frozen(monkeypatch):
    real = experiments.train_adversarial

    def nudging(model, *args, **kwargs):
        forward = model.hf_block.forward

        def nudge_then_forward(*f_args, **f_kwargs):
            model.lf_block.params[0] += 1e-3
            return forward(*f_args, **f_kwargs)

        model.hf_block.forward = nudge_then_forward
        return real(model, *args, **kwargs)

    monkeypatch.setattr(experiments, "train_adversarial", nudging)
    record = run_experiment(get("forrester1d"), 15, 3, fast_config(), n_repeats=1, test_size=10).records[0]
    assert record.failed and "frozen low-fidelity block changed" in record.error
    assert record.lf_frozen_ok is False


def test_parallel_runs_match_serial(tmp_path):
    cfg = fast_config(seed=1)
    pair = get("forrester1d")
    serial = run_experiment(pair, 15, 3, cfg, n_repeats=4, test_size=20, n_jobs=1)
    parallel = run_experiment(pair, 15, 3, cfg, n_repeats=4, test_size=20, n_jobs=2)
    assert [r.nrmse for r in serial.records] == [r.nrmse for r in parallel.records]
    assert serial.seeds == parallel.seeds


def count_pretrainings(monkeypatch) -> list:
    """Record each call of the pretraining that runs use."""
    calls = []
    real = experiments.pretrain_lf

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "pretrain_lf", counted)
    return calls


def test_baselines_pretrain_each_lf_block_once(monkeypatch):
    calls = count_pretrainings(monkeypatch)
    run_baselines(get("forrester1d"), 20, 3, fast_config(), n_repeats=3, test_size=10, n_jobs=1)
    assert len(calls) == 3


def test_hf_sweep_pretrains_each_lf_block_once(monkeypatch):
    calls = count_pretrainings(monkeypatch)
    run_hf_sweep(get("forrester1d"), 20, [10, 5, 2], fast_config(), n_repeats=3, test_size=10, n_jobs=1)
    assert len(calls) == 3


def test_reused_lf_blocks_match_fresh_pretraining(monkeypatch):
    pair = get("forrester1d")
    comp = run_baselines(pair, 20, 3, fast_config(seed=4), n_repeats=2, test_size=15)
    alone = run_experiment(pair, 20, 3, fast_config(seed=4), n_repeats=2, test_size=15, variant="pgan")
    assert comp.pgan.to_dict() == alone.to_dict()
    sweep = run_hf_sweep(pair, 20, [5, 2], fast_config(seed=4), n_repeats=2, test_size=15)
    alone = run_experiment(pair, 20, 2, fast_config(seed=4), n_repeats=2, test_size=15)
    assert sweep[1].to_dict() == alone.to_dict()
    # the cells of an LF sweep differ in their LF samples, so none reuses a block
    calls = count_pretrainings(monkeypatch)
    sweep = run_lf_sweep(pair, [20, 12, 6], 3, fast_config(seed=4), n_repeats=2, test_size=15)
    assert len(calls) == 6
    for cell in sweep:
        alone = run_experiment(pair, cell.n_lf, 3, fast_config(seed=4), n_repeats=2, test_size=15)
        assert cell.to_dict() == alone.to_dict()


def test_cached_lf_blocks_are_never_trained_with(monkeypatch):
    trained_with = []
    real = experiments.train_adversarial

    def spy(model, *args, **kwargs):
        trained_with.append(model.lf_block)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(experiments, "train_adversarial", spy)
    pair, cfg, blocks = get("forrester1d"), fast_config(), {}
    run_experiment(pair, 20, 3, cfg, n_repeats=2, test_size=10, _lf_blocks=blocks)
    assert sorted(blocks) == [(20, 0), (20, 1)] and all(net.frozen for net in blocks.values())
    checksums = {key: net.checksum() for key, net in blocks.items()}
    run_experiment(pair, 20, 3, cfg, n_repeats=2, test_size=10, variant="pgan", _lf_blocks=blocks)
    run_experiment(pair, 20, 2, cfg, n_repeats=2, test_size=10, _lf_blocks=blocks)
    assert {key: net.checksum() for key, net in blocks.items()} == checksums
    assert len(trained_with) == 6
    for block in trained_with:
        assert not any(np.shares_memory(block.params, net.params) for net in blocks.values())


def pretrained_checksum(n_lf, n_hf, seed, variant="gan", nested=False):
    """The checksum of the LF block one run pretrains."""
    cfg = fast_config(lf_batch_cap=8, hidden_activations=("leaky_relu",))
    _, block = experiments._execute_run(
        get("forrester1d"), n_lf, n_hf, cfg, seed, None, test_size=10, variant=variant, nested=nested
    )
    return block.checksum()


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "hf-only"])
def test_a_table_pretrains_the_same_lf_block_at_the_same_i_l_and_seed(variant):
    """Why the cells of a table can share blocks by (I_L, seed): the block
    moves with neither the variant, nor I_H, nor ``nested``, only with them."""
    reference = pretrained_checksum(20, 5, 1)
    for n_hf in (2, 5):
        for nested in (False, True):
            assert pretrained_checksum(20, n_hf, 1, variant, nested) == reference, (n_hf, nested)
    assert pretrained_checksum(21, 5, 1, variant) != reference
    assert pretrained_checksum(20, 5, 2, variant) != reference


def test_each_run_is_handed_only_its_own_lf_block(monkeypatch):
    handed, made = [], {}
    real = experiments._execute_run

    def spy(pair, n_lf, n_hf, config, run_seed, lf_block, **kwargs):
        handed.append((n_lf, run_seed, kwargs["variant"], None if lf_block is None else lf_block.checksum()))
        record, pretrained = real(pair, n_lf, n_hf, config, run_seed, lf_block, **kwargs)
        if pretrained is not None:
            made[n_lf, run_seed] = pretrained.checksum()
        return record, pretrained

    monkeypatch.setattr(experiments, "_execute_run", spy)
    cells = [(20, 3, "gan"), (20, 3, "hf-only"), (20, 2, "pgan"), (12, 2, "gan")]
    experiments._run_cells(get("forrester1d"), cells, fast_config(), 2, test_size=10)
    assert sorted(made) == [(12, 0), (12, 1), (20, 0), (20, 1)]
    assert handed == [
        (20, 0, "gan", None), (20, 1, "gan", None),
        (20, 0, "hf-only", None), (20, 1, "hf-only", None),
        (20, 0, "pgan", made[20, 0]), (20, 1, "pgan", made[20, 1]),
        (12, 0, "gan", None), (12, 1, "gan", None),
    ]


@pytest.mark.filterwarnings("ignore:overflow")
def test_diverged_pretraining_is_not_cached(monkeypatch):
    calls = count_pretrainings(monkeypatch)
    comp = run_baselines(get("forrester1d"), 20, 3, fast_config(lr_lf=1e308), n_repeats=2, test_size=10)
    assert len(calls) == 4
    assert [r.error for r in comp.pgan.records] == [r.error for r in comp.gan.records]
    assert all("pretraining diverged" in r.error for r in comp.pgan.records)


def test_cached_runs_match_across_job_counts():
    pair, cfg = get("forrester1d"), fast_config(seed=6)
    serial = run_baselines(pair, 20, 3, cfg, n_repeats=3, test_size=15, n_jobs=1)
    parallel = run_baselines(pair, 20, 3, cfg, n_repeats=3, test_size=15, n_jobs=2)
    assert serial.to_dict() == parallel.to_dict()
    serial = run_hf_sweep(pair, 20, [5, 2], cfg, n_repeats=3, test_size=15, n_jobs=1)
    parallel = run_hf_sweep(pair, 20, [5, 2], cfg, n_repeats=3, test_size=15, n_jobs=2)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


def test_grids_are_checked_before_any_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("pretraining started before the grid was checked")

    monkeypatch.setattr(experiments, "pretrain_lf", no_training)
    pair = get("forrester1d")
    with pytest.raises(ValueError, match="two high-fidelity samples"):
        run_hf_sweep(pair, 50, [5, 1], fast_config())
    with pytest.raises(ValueError, match="n_lf >= n_hf"):
        run_hf_sweep(pair, 50, [5, 60], fast_config())
    with pytest.raises(ValueError, match="n_lf >= n_hf"):
        run_lf_sweep(pair, [50, 3], 5, fast_config())
    with pytest.raises(ValueError, match="two high-fidelity samples"):
        run_baselines(pair, 50, 1, fast_config())


def test_scatter_identity_pair_sits_on_the_diagonal():
    pts = emit_correlation_scatter(identity_pair(), 3, seed=0)
    assert pts.shape == (3, 2)
    np.testing.assert_array_equal(pts[:, 0], pts[:, 1])


def test_scatter_forrester_leaves_the_diagonal():
    pts = emit_correlation_scatter(get("forrester1d"), 100, seed=1)
    assert np.abs(pts[:, 0] - pts[:, 1]).max() > 0


def test_scatter_row_count_and_determinism():
    a = emit_correlation_scatter(get("currin2d"), 17, seed=5)
    b = emit_correlation_scatter(get("currin2d"), 17, seed=5)
    assert len(a) == 17
    np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError):
        emit_correlation_scatter(get("currin2d"), 0)


def test_results_csv_layout(tmp_path):
    res = run_experiment(get("forrester1d"), 15, 3, fast_config(), n_repeats=2, test_size=10)
    path = write_results_csv([res], tmp_path / "runs.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "benchmark,i_l,i_h,seed,nrmse,wall_ms"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "forrester1d"
    assert (int(fields[1]), int(fields[2])) == (15, 3)
    assert float(fields[4]) == res.records[0].nrmse  # repr round-trips exactly


def test_summary_json_is_wall_clock_free(tmp_path):
    res = run_experiment(get("forrester1d"), 15, 3, fast_config(), n_repeats=2, test_size=10)
    path = write_summary_json([res], tmp_path / "summary.json")
    doc = json.loads(path.read_text())
    entry = doc["results"][0]
    assert entry["mean_nrmse"] == res.mean_nrmse
    assert "wall" not in path.read_text()
    assert [run["seed"] for run in entry["runs"]] == [0, 1]


def test_scatter_csv_round_trip(tmp_path):
    pts = emit_correlation_scatter(get("forrester1d"), 5, seed=2)
    path = write_scatter_csv(pts, tmp_path / "scatter.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "y_lf,y_hf"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(parsed, pts)
