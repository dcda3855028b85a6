import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mdfgan.benchmarks import get
from mdfgan.data import Normalizer, make_dataset
from mdfgan.gan import (
    HF_BATCH_CAP,
    MODE_COUPLED,
    MODE_STANDARD_GAN,
    GanMdfModel,
    TrainingConfig,
    TrainingDivergedError,
    discriminative,
    fit_regression,
    generative,
    load_checkpoint,
    pretrain_lf,
    save_checkpoint,
    squared_error,
    train,
    train_adversarial,
    write_loss_trace,
)
from mdfgan.nn import DenseNetwork, FrozenNetworkError, IDENTITY, NonFiniteError, SIGMOID, network
from oracles import fresh_adam_mem, scripted_adam_step


def tiny_config(**overrides):
    base = dict(
        epochs_lf=0,
        epochs_hf=1,
        hidden_sizes=(3,),
        normalizer="none",
        seed=11,
    )
    base.update(overrides)
    return TrainingConfig(**base)


def toy_problem(config=None):
    """Two high-fidelity samples, LF block frozen at initialization."""
    config = config or tiny_config()
    model = GanMdfModel.build(1, 1, config)
    hf_x = np.array([[0.2], [0.8]])
    hf_y = np.array([[1.0], [-0.5]])
    pretrain_lf(model, np.array([[0.1], [0.5], [0.9]]), np.array([[0.0], [1.0], [0.5]]), config)
    return model, hf_x, hf_y, config


# -- configuration -----------------------------------------------------------


def test_config_rejects_negative_rates():
    with pytest.raises(ValueError, match="lr_gen"):
        TrainingConfig(lr_gen=-0.001)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["lr_lf", "lr_disc", "lr_gen", "lr_sup"])
def test_config_rejects_non_finite_rates(name, rate):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TrainingConfig(**{name: rate})


def test_config_rejects_bad_mode_and_normalizer():
    with pytest.raises(ValueError, match="mode"):
        TrainingConfig(mode="alternating")
    with pytest.raises(ValueError, match="normalizer"):
        TrainingConfig(normalizer="robust")


def test_config_rejects_mismatched_activation_count():
    with pytest.raises(ValueError, match="activations"):
        TrainingConfig(hidden_sizes=(8, 8, 8), hidden_activations=("sigmoid", "ricker"))


def test_config_broadcasts_single_activation():
    cfg = TrainingConfig(hidden_sizes=(4, 4, 4), hidden_activations=("sigmoid",))
    assert len(cfg.resolved_activations()) == 3


def test_config_warns_when_disc_rate_not_larger():
    with pytest.warns(UserWarning, match="lr_disc"):
        TrainingConfig(lr_disc=0.001, lr_gen=0.001)


def test_config_json_is_pinned():
    """Checkpoints embed this document: field order, and tuples as lists."""
    assert json.dumps(TrainingConfig().to_dict()) == (
        '{"lr_lf": 0.03, "lr_disc": 0.002, "lr_gen": 0.001, "lr_sup": 0.05, '
        '"epochs_lf": 4000, "epochs_hf": 350, "lf_batch_cap": 32, '
        '"hidden_sizes": [32, 32], "hidden_activations": ["sigmoid"], '
        '"leaky_alpha": 0.01, "normalizer": "none", "mode": "coupled", '
        '"supervised_trick": true, "seed": 0}'
    )


def test_config_round_trip():
    cfg = TrainingConfig(lr_lf=0.01, hidden_sizes=(7,), hidden_activations=("leaky_relu",), leaky_alpha=0.2)
    again = TrainingConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


# -- model assembly ------------------------------------------------------------


def test_build_wires_block_widths():
    model = GanMdfModel.build(3, 2, tiny_config(hidden_sizes=(6, 4)))
    assert model.lf_block.layer_sizes == [3, 6, 4, 2]
    assert model.hf_block.layer_sizes == [5, 6, 4, 2]  # input is (x, q)
    assert model.discriminator.layer_sizes == [2, 6, 4, 1]
    assert model.discriminator.output_activation == SIGMOID
    assert model.hf_block.output_activation == IDENTITY


def test_build_blocks_get_distinct_weights():
    model = GanMdfModel.build(1, 1, tiny_config())
    assert model.lf_block.checksum() != model.discriminator.checksum()


def test_model_rejects_inconsistent_blocks():
    cfg = tiny_config()
    lf = DenseNetwork([1, 3, 1], cfg.resolved_activations())
    hf = DenseNetwork([3, 3, 1], cfg.resolved_activations())  # wants width 2
    disc = DenseNetwork([1, 3, 1], cfg.resolved_activations(), SIGMOID)
    with pytest.raises(ValueError, match="width"):
        GanMdfModel(lf, hf, disc)


def test_generator_forward_composes_blocks():
    model = GanMdfModel.build(2, 1, tiny_config())
    x = np.array([[0.3, 0.6], [0.9, 0.1]])
    q, _ = model.lf_block.forward(x)
    expected, _ = model.hf_block.forward(np.hstack([x, q]))
    np.testing.assert_array_equal(model.generator_forward(x), expected)
    with pytest.raises(ValueError, match="width"):
        model.generator_forward(x[0])


def test_predict_shapes_and_width_check():
    model = GanMdfModel.build(2, 1, tiny_config())
    out = model.predict(np.zeros((4, 2)))
    assert out.shape == (4, 1)
    assert model.predict(np.zeros(2)).shape == (1,)
    with pytest.raises(ValueError, match="width"):
        model.predict(np.zeros((4, 3)))


def test_fit_normalizers_uses_lf_inputs_and_per_fidelity_outputs():
    pair = get("forrester1d")
    ds = make_dataset(pair, 50, 5, seed=1)
    model = GanMdfModel.build(1, 1, tiny_config())
    model.fit_normalizers(ds, "standard")
    np.testing.assert_allclose(model.input_norm.shift, ds.lf_x.mean(axis=0))
    np.testing.assert_allclose(model.lf_output_norm.shift, ds.lf_y.mean(axis=0))
    np.testing.assert_allclose(model.hf_output_norm.shift, ds.hf_y.mean(axis=0))


def test_predict_undoes_normalization():
    pair = get("forrester1d")
    ds = make_dataset(pair, 50, 5, seed=2)
    model = GanMdfModel.build(1, 1, tiny_config())
    model.fit_normalizers(ds, "minmax")
    x = ds.hf_x
    z = model.input_norm.transform(x)
    manual = model.hf_output_norm.inverse_transform(model.generator_forward(z))
    np.testing.assert_allclose(model.predict(x), manual, atol=1e-14)


# -- loss formulas --------------------------------------------------------------


# Each loss returns its value and its upstream (the gradient with respect to
# its array arguments); the upstreams are checked against central differences.


def central_differences(loss, arr, h=1e-6):
    g = np.zeros_like(arr)
    for i in np.ndindex(arr.shape):
        up, down = arr.copy(), arr.copy()
        up[i] += h
        down[i] -= h
        g[i] = (loss(up) - loss(down)) / (2.0 * h)
    return g


def test_supervised_loss_formula():
    model, hf_x, hf_y, _ = toy_problem()
    pred = model.generator_forward(hf_x)
    loss, upstream = squared_error(pred, hf_y)
    resid = pred - hf_y
    assert loss == pytest.approx(float((resid**2).sum(axis=1).mean()), abs=1e-15)
    fd = central_differences(lambda p: squared_error(p, hf_y)[0], pred)
    np.testing.assert_allclose(upstream, fd, atol=1e-8)


def test_generative_loss_formula():
    model, hf_x, _, _ = toy_problem()
    scores, _ = model.discriminator.forward(model.generator_forward(hf_x))
    loss, upstream = generative(scores)
    assert loss == pytest.approx(float((1.0 - scores).mean()), abs=1e-15)
    fd = central_differences(lambda s: generative(s)[0], scores)
    np.testing.assert_allclose(upstream, fd, atol=1e-8)


def test_discriminative_loss_formula():
    model, hf_x, hf_y, _ = toy_problem()
    real, _ = model.discriminator.forward(hf_y)
    fake, _ = model.discriminator.forward(model.generator_forward(hf_x))
    loss, up_real, up_fake = discriminative(real, fake)
    assert loss == pytest.approx(float((1.0 - real).mean() + fake.mean()), abs=1e-15)
    fd_real = central_differences(lambda r: discriminative(r, fake)[0], real)
    fd_fake = central_differences(lambda f: discriminative(real, f)[0], fake)
    np.testing.assert_allclose(up_real, fd_real, atol=1e-8)
    np.testing.assert_allclose(up_fake, fd_fake, atol=1e-8)


@pytest.mark.filterwarnings("ignore:overflow")
def test_losses_reject_non_finite_values():
    with pytest.raises(NonFiniteError, match="squared-error"):
        squared_error(np.array([[1e200]]), np.zeros((1, 1)))
    with pytest.raises(NonFiniteError, match="generative"):
        generative(np.array([[np.nan]]))
    with pytest.raises(NonFiniteError, match="discriminative"):
        discriminative(np.array([[0.5]]), np.array([[np.inf]]))


# -- low-fidelity pretraining ------------------------------------------------------


def test_pretrain_freezes_and_learns():
    pair = get("forrester1d")
    ds = make_dataset(pair, 60, 5, seed=3)
    cfg = TrainingConfig(epochs_lf=150, epochs_hf=1, hidden_sizes=(16,), seed=0)
    model = GanMdfModel.build(1, 1, cfg)
    trace = pretrain_lf(model, ds.lf_x, ds.lf_y, cfg)
    assert len(trace) == 150
    assert trace[-1] < trace[0]
    assert model.lf_block.frozen


def test_pretrain_zero_epochs_is_a_frozen_noop():
    cfg = tiny_config()
    model = GanMdfModel.build(1, 1, cfg)
    before = model.lf_block.checksum()
    trace = pretrain_lf(model, np.array([[0.5]]), np.array([[1.0]]), cfg)
    assert trace == []
    assert model.lf_block.checksum() == before
    assert model.lf_block.frozen


def test_pretrain_twice_is_rejected():
    model, _, _, cfg = toy_problem()
    with pytest.raises(FrozenNetworkError, match="already frozen"):
        pretrain_lf(model, np.array([[0.5]]), np.array([[1.0]]), cfg)


def test_pretrain_rejects_empty_or_mismatched_samples():
    cfg = tiny_config()
    model = GanMdfModel.build(1, 1, cfg)
    with pytest.raises(ValueError, match="empty"):
        pretrain_lf(model, np.zeros((0, 1)), np.zeros((0, 1)), cfg)
    with pytest.raises(ValueError, match="shape"):
        pretrain_lf(model, np.zeros((3, 2)), np.zeros((3, 1)), cfg)
    # one sample as a vector is not promoted to a row: rows only
    for x, y in ((np.zeros(1), np.zeros(1)), (np.zeros((1, 1)), np.zeros(1)), (0.5, 0.5)):
        with pytest.raises(ValueError, match="shapes do not match the model"):
            pretrain_lf(model, x, y, cfg)


def test_training_rejects_unequal_row_counts():
    """Inputs and responses pair up row by row; one response row must not
    broadcast over a batch of inputs."""
    cfg = tiny_config(epochs_lf=1)
    for n_y in (1, 2):
        with pytest.raises(ValueError, match=f"3 input rows but {n_y} response rows"):
            pretrain_lf(GanMdfModel.build(1, 1, cfg), np.zeros((3, 1)), np.zeros((n_y, 1)), cfg)
    model, hf_x, hf_y, cfg = toy_problem()
    with pytest.raises(ValueError, match="2 input rows but 1 response rows"):
        train_adversarial(model, hf_x, hf_y[:1], cfg)


@pytest.mark.filterwarnings("ignore:overflow")
def test_fit_regression_divergence_names_epoch():
    net = DenseNetwork([1, 1], [], IDENTITY, seed=0)
    net.weights[0][:] = 1e200  # squared residual overflows immediately
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        fit_regression(
            net, np.array([[1.0]]), np.array([[0.0]]), 0.01, 3, 32,
            np.random.default_rng(0),
        )


def inf_gradient(monkeypatch):
    """Make every parameter gradient carry an infinity in its first entry,
    which lies in layer0.weight."""
    gradient = DenseNetwork.gradient

    def poisoned(self, tape, upstream, **kwargs):
        grad, into = gradient(self, tape, upstream, **kwargs)
        grad[0] = np.inf
        return grad, into

    monkeypatch.setattr(DenseNetwork, "gradient", poisoned)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize(
    "source, message",
    [
        ("preactivation", "low-fidelity pretraining diverged at epoch 0: non-finite input to sigmoid activation"),
        ("gradient", "low-fidelity pretraining diverged at epoch 0: non-finite gradient in layer0.weight"),
    ],
    ids=["preactivation", "gradient"],
)
def test_pretraining_non_finite_value_is_divergence(monkeypatch, source, message):
    """Weights of 1e308 overflow a pre-activation to infinity inside the
    forward pass, and a gradient entry can stop being finite; both are
    divergence, not a usage error."""
    cfg = tiny_config(epochs_lf=3)
    model = GanMdfModel.build(1, 1, cfg)
    if source == "preactivation":
        model.lf_block.params[:] = 1e308
    else:
        inf_gradient(monkeypatch)
    with pytest.raises(TrainingDivergedError) as info:
        pretrain_lf(model, np.array([[1.0]]), np.array([[0.0]]), cfg)
    assert str(info.value) == message


# -- adversarial phase: the five-stage schedule ---------------------------------------


def scripted_five_stages(model, hf_x, hf_y, config):
    """Recompute one coupled iteration from scratch: three supervised steps
    interleaved with one discriminative and one generative update, each loss
    owning its Adam accumulators, both gradients of a shared loss taken
    before either parameter set moves."""
    lf = model.lf_block.copy()
    hf = model.hf_block.copy()
    disc = model.discriminator.copy()
    b = hf_x.shape[0]
    q, _ = lf.forward(hf_x)
    gen_in = np.hstack([hf_x, q])
    mems = {
        "hf_sup": fresh_adam_mem(hf.params),
        "hf_disc": fresh_adam_mem(hf.params),
        "hf_gen": fresh_adam_mem(hf.params),
        "disc_disc": fresh_adam_mem(disc.params),
        "disc_gen": fresh_adam_mem(disc.params),
    }
    losses = {}

    def sup_step(tag):
        pred, tape = hf.forward(gen_in)
        resid = pred - hf_y
        losses[tag] = float((resid**2).sum(axis=1).mean())
        grad, _ = hf.gradient(tape, 2.0 * resid / b)
        scripted_adam_step(hf.params, grad, mems["hf_sup"], config.lr_sup)

    sup_step("sup1")

    real, tape_r = disc.forward(hf_y)
    fake_pred, tape_h = hf.forward(gen_in)
    fake, tape_f = disc.forward(fake_pred)
    losses["disc"] = float((1.0 - real).mean() + fake.mean())
    g_real, _ = disc.gradient(tape_r, np.full_like(real, -1.0 / b))
    g_fake, into = disc.gradient(tape_f, np.full_like(fake, 1.0 / b))
    g_hf, _ = hf.gradient(tape_h, into)
    scripted_adam_step(hf.params, g_hf, mems["hf_disc"], config.lr_disc)
    scripted_adam_step(disc.params, g_real + g_fake, mems["disc_disc"], config.lr_disc)

    sup_step("sup2")

    fake_pred, tape_h = hf.forward(gen_in)
    fake, tape_f = disc.forward(fake_pred)
    losses["gen"] = float((1.0 - fake).mean())
    g_disc, into = disc.gradient(tape_f, np.full_like(fake, -1.0 / b))
    g_hf, _ = hf.gradient(tape_h, into)
    scripted_adam_step(hf.params, g_hf, mems["hf_gen"], config.lr_gen)
    scripted_adam_step(disc.params, g_disc, mems["disc_gen"], config.lr_gen)

    sup_step("sup3")
    return hf, disc, losses


def test_one_iteration_matches_scripted_five_stage_trace():
    model, hf_x, hf_y, cfg = toy_problem()
    expected_hf, expected_disc, losses = scripted_five_stages(model, hf_x, hf_y, cfg)

    trace = train_adversarial(model, hf_x, hf_y, cfg)

    assert len(trace) == 1
    row = trace[0]
    assert row.iteration == 1
    assert row.supervised == pytest.approx(losses["sup1"], abs=1e-12)
    assert row.discriminative == pytest.approx(losses["disc"], abs=1e-12)
    assert row.generative == pytest.approx(losses["gen"], abs=1e-12)
    np.testing.assert_allclose(model.hf_block.params, expected_hf.params, atol=1e-10)
    np.testing.assert_allclose(model.discriminator.params, expected_disc.params, atol=1e-10)


def test_three_iterations_match_scripted_trace():
    """Adam accumulators must persist across iterations per loss."""
    cfg = tiny_config(epochs_hf=3)
    model, hf_x, hf_y, _ = toy_problem(cfg)
    scripted = (model.hf_block.copy(), model.discriminator.copy())

    # run the scripted five stages three times on persistent copies
    holder = GanMdfModel(model.lf_block.copy(), scripted[0], scripted[1])
    lf = holder.lf_block
    hf, disc = holder.hf_block, holder.discriminator
    b = hf_x.shape[0]
    q, _ = lf.forward(hf_x)
    gen_in = np.hstack([hf_x, q])
    mems = {
        "hf_sup": fresh_adam_mem(hf.params),
        "hf_disc": fresh_adam_mem(hf.params),
        "hf_gen": fresh_adam_mem(hf.params),
        "disc_disc": fresh_adam_mem(disc.params),
        "disc_gen": fresh_adam_mem(disc.params),
    }

    def sup_step():
        pred, tape = hf.forward(gen_in)
        grad, _ = hf.gradient(tape, 2.0 * (pred - hf_y) / b)
        scripted_adam_step(hf.params, grad, mems["hf_sup"], cfg.lr_sup)

    for _ in range(3):
        sup_step()
        real, tape_r = disc.forward(hf_y)
        fake_pred, tape_h = hf.forward(gen_in)
        fake, tape_f = disc.forward(fake_pred)
        g_real, _ = disc.gradient(tape_r, np.full_like(real, -1.0 / b))
        g_fake, into = disc.gradient(tape_f, np.full_like(fake, 1.0 / b))
        g_hf, _ = hf.gradient(tape_h, into)
        scripted_adam_step(hf.params, g_hf, mems["hf_disc"], cfg.lr_disc)
        scripted_adam_step(disc.params, g_real + g_fake, mems["disc_disc"], cfg.lr_disc)
        sup_step()
        fake_pred, tape_h = hf.forward(gen_in)
        fake, tape_f = disc.forward(fake_pred)
        g_disc, into = disc.gradient(tape_f, np.full_like(fake, -1.0 / b))
        g_hf, _ = hf.gradient(tape_h, into)
        scripted_adam_step(hf.params, g_hf, mems["hf_gen"], cfg.lr_gen)
        scripted_adam_step(disc.params, g_disc, mems["disc_gen"], cfg.lr_gen)
        sup_step()

    trace = train_adversarial(model, hf_x, hf_y, cfg)
    assert [row.iteration for row in trace] == [1, 2, 3]
    np.testing.assert_allclose(model.hf_block.params, hf.params, atol=1e-10)
    np.testing.assert_allclose(model.discriminator.params, disc.params, atol=1e-10)


def test_adversarial_requires_frozen_lf_block():
    cfg = tiny_config()
    model = GanMdfModel.build(1, 1, cfg)
    with pytest.raises(FrozenNetworkError, match="pretrained"):
        train_adversarial(model, np.array([[0.1], [0.9]]), np.array([[0.0], [1.0]]), cfg)


def test_adversarial_requires_two_samples():
    model, _, _, cfg = toy_problem()
    with pytest.raises(ValueError, match="two"):
        train_adversarial(model, np.array([[0.1]]), np.array([[0.0]]), cfg)


def test_adversarial_rejects_a_rank_other_than_two():
    model, hf_x, hf_y, cfg = toy_problem()
    for x, y in ((hf_x[:, 0], hf_y), (hf_x, hf_y[:, 0]), (hf_x[None], hf_y[None])):
        with pytest.raises(ValueError, match="shapes do not match the model"):
            train_adversarial(model, x, y, cfg)


def test_adversarial_zero_epochs_changes_nothing():
    cfg = tiny_config(epochs_hf=0)
    model, hf_x, hf_y, _ = toy_problem(cfg)
    sums = (model.hf_block.checksum(), model.discriminator.checksum())
    trace = train_adversarial(model, hf_x, hf_y, cfg)
    assert trace == []
    assert (model.hf_block.checksum(), model.discriminator.checksum()) == sums


def test_adversarial_preserves_lf_checksum():
    cfg = tiny_config(epochs_hf=20)
    model, hf_x, hf_y, _ = toy_problem(cfg)
    before = model.lf_checksum()
    train_adversarial(model, hf_x, hf_y, cfg)
    assert model.lf_checksum() == before


def test_batch_rule_caps_at_32():
    pair = get("forrester1d")
    ds = make_dataset(pair, 100, 40, seed=6)
    cfg = tiny_config(epochs_hf=2, seed=3)
    model = GanMdfModel.build(1, 1, cfg)
    pretrain_lf(model, ds.lf_x, ds.lf_y, cfg)
    trace = train_adversarial(model, ds.hf_x, ds.hf_y, cfg)
    assert HF_BATCH_CAP == 32
    assert len(trace) == 2 * 2  # 40 samples -> batches of 32 and 8, twice


def test_modes_agree_when_adversarial_rates_are_zero():
    """With both adversarial rates at zero the coupling choice is moot."""
    results = {}
    for mode in (MODE_COUPLED, MODE_STANDARD_GAN):
        with pytest.warns(UserWarning, match="lr_disc"):
            cfg = tiny_config(epochs_hf=5, lr_disc=0.0, lr_gen=0.0, mode=mode)
        model, hf_x, hf_y, _ = toy_problem(cfg)
        train_adversarial(model, hf_x, hf_y, cfg)
        results[mode] = (model.hf_block.checksum(), model.discriminator.checksum())
    assert results[MODE_COUPLED] == results[MODE_STANDARD_GAN]


def test_standard_gan_mode_decouples_updates():
    results = {}
    for mode in (MODE_COUPLED, MODE_STANDARD_GAN):
        cfg = tiny_config(epochs_hf=5, mode=mode)
        model, hf_x, hf_y, _ = toy_problem(cfg)
        train_adversarial(model, hf_x, hf_y, cfg)
        results[mode] = (model.hf_block.checksum(), model.discriminator.checksum())
    assert results[MODE_COUPLED] != results[MODE_STANDARD_GAN]


def test_pgan_skips_supervised_updates_but_records_the_loss():
    cfg_full = tiny_config(epochs_hf=4)
    cfg_pgan = tiny_config(epochs_hf=4, supervised_trick=False)
    model_full, hf_x, hf_y, _ = toy_problem(cfg_full)
    model_pgan, _, _, _ = toy_problem(cfg_pgan)
    trace_full = train_adversarial(model_full, hf_x, hf_y, cfg_full)
    trace_pgan = train_adversarial(model_pgan, hf_x, hf_y, cfg_pgan)
    assert model_full.hf_block.checksum() != model_pgan.hf_block.checksum()
    assert all(np.isfinite(row.supervised) for row in trace_pgan)
    # without supervised pressure the squared error should not match the full run
    assert trace_full[-1].supervised != trace_pgan[-1].supervised


@pytest.mark.parametrize("mode", [MODE_COUPLED, MODE_STANDARD_GAN])
@pytest.mark.parametrize("trick", [True, False], ids=["trick", "no-trick"])
def test_one_iteration_runs_each_forward_pass_once(monkeypatch, mode, trick):
    """Per adversarial iteration: five forward passes, plus one per
    supervised stage (none is repeated: without the trick, stage 2 reuses
    stage 1's high-fidelity pass); Adam steps as the benchmark's tracer
    counts them; and an input gradient only where it feeds the high-fidelity
    block."""
    cfg = tiny_config(mode=mode, supervised_trick=trick)
    model, hf_x, hf_y, _ = toy_problem(cfg)
    calls = {"forward": 0, "adam_step": 0, "input_grad": 0}
    real_forward, real_gradient, real_adam = DenseNetwork.forward, DenseNetwork.gradient, network.adam_step

    def forward(net, x):
        calls["forward"] += net is not model.lf_block  # not the one LF pass per run
        return real_forward(net, x)

    def gradient(net, tape, upstream, *, input_grad=True):
        calls["input_grad"] += input_grad
        return real_gradient(net, tape, upstream, input_grad=input_grad)

    def adam_step(*args, **kwargs):
        calls["adam_step"] += 1
        return real_adam(*args, **kwargs)

    monkeypatch.setattr(DenseNetwork, "forward", forward)
    monkeypatch.setattr(DenseNetwork, "gradient", gradient)
    monkeypatch.setattr(network, "adam_step", adam_step)
    coupled = mode == MODE_COUPLED
    assert len(train_adversarial(model, hf_x, hf_y, cfg)) == 1
    assert calls == {
        "forward": 5 + (3 if trick else 0),
        "adam_step": (4 if coupled else 2) + (3 if trick else 0),
        "input_grad": 2 if coupled else 1,
    }


def test_supervised_only_training_reduces_the_loss():
    with pytest.warns(UserWarning, match="lr_disc"):
        cfg = tiny_config(epochs_hf=40, lr_disc=0.0, lr_gen=0.0, lr_sup=0.01, hidden_sizes=(8,))
    model, hf_x, hf_y, _ = toy_problem(cfg)
    trace = train_adversarial(model, hf_x, hf_y, cfg)
    assert trace[-1].supervised < trace[0].supervised


@pytest.mark.filterwarnings("ignore:overflow")
def test_adversarial_divergence_names_iteration_and_loss():
    model, hf_x, hf_y, cfg = toy_problem()
    model.hf_block.weights[-1][:] = 1e200
    with pytest.raises(TrainingDivergedError, match="supervised.*iteration 1"):
        train_adversarial(model, hf_x, hf_y, cfg)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize(
    "source, message",
    [
        (
            "preactivation",
            "adversarial training diverged in the discriminative stage at iteration 1: "
            "non-finite input to sigmoid activation",
        ),
        (
            "gradient",
            "adversarial training diverged in the supervised stage at iteration 1: "
            "non-finite gradient in layer0.weight",
        ),
    ],
    ids=["preactivation", "gradient"],
)
def test_adversarial_non_finite_value_names_the_stage(monkeypatch, source, message):
    """An overflowing discriminator pre-activation first shows in stage 2,
    a non-finite gradient in the first update, stage 1."""
    model, hf_x, hf_y, cfg = toy_problem()
    if source == "preactivation":
        model.discriminator.params[:] = 1e308
    else:
        inf_gradient(monkeypatch)
    with pytest.raises(TrainingDivergedError) as info:
        train_adversarial(model, hf_x, hf_y, cfg)
    assert str(info.value) == message


def test_trace_iterations_count_epochs():
    cfg = tiny_config(epochs_hf=7)
    model, hf_x, hf_y, _ = toy_problem(cfg)
    trace = train_adversarial(model, hf_x, hf_y, cfg)
    assert [row.iteration for row in trace] == list(range(1, 8))


# -- orchestration and persistence -----------------------------------------------


def test_train_end_to_end_smoke():
    pair = get("forrester1d")
    ds = make_dataset(pair, 30, 4, seed=7)
    cfg = TrainingConfig(epochs_lf=50, epochs_hf=10, hidden_sizes=(8,), seed=5)
    model, trace = train(ds, cfg)
    assert len(trace) == 10
    assert model.lf_block.frozen
    pred = model.predict(ds.hf_x)
    assert np.isfinite(pred).all()


@pytest.mark.parametrize(
    "name, n_lf, n_hf, epochs_lf, epochs_hf, overrides, digest",
    [
        # sigmoid hidden layers, shuffled LF batches (I_L > lf_batch_cap)
        ("forrester1d", 100, 5, 150, 30, {}, "586384b347e477deeb97d77761afef5ae46486c1a4b7f3bebb870c5eeac5f5e9"),
        # leaky_relu hidden layers, standard normalizer, 20-D inputs
        ("separable20d", 80, 20, 60, 20, {}, "b35c8368a1a86c258d41a803ff37c5926849d40c326a293cf06cc16547659bfe"),
        # the two ablation paths: no supervised stages, and standard-gan updates
        ("separable20d", 80, 20, 60, 20, {"supervised_trick": False},
         "eee286a34b8940e565a18ed07e0e6a9cd80a63b3aedb2329ceaa0dec1a15794c"),
        ("separable20d", 80, 20, 60, 20, {"mode": MODE_STANDARD_GAN},
         "07a08c9cc6d165370c99279a6c15a4b05fb0c9d2f249909b19e0f7ffb22d8275"),
    ],
    ids=[
        "forrester1d-100-5-150-30",
        "separable20d-80-20-60-20",
        "separable20d-80-20-60-20-no-trick",
        "separable20d-80-20-60-20-standard-gan",
    ],
)
def test_train_digest_is_pinned(name, n_lf, n_hf, epochs_lf, epochs_hf, overrides, digest):
    """SHA-256 over the three trained parameter vectors and the loss trace,
    recorded when the sigmoid became 0.5*(1+tanh(v/2)) (the two ablation
    cases before the leaky_relu became max(v, alpha*v)): any change to the
    arithmetic of a forward pass, a gradient, an Adam step or a loss shows.
    The discriminator's sigmoid head moves the leaky_relu digests too."""
    pair = get(name)
    ds = make_dataset(pair, n_lf, n_hf, seed=3)
    cfg = replace(pair.default_config, epochs_lf=epochs_lf, epochs_hf=epochs_hf, seed=3, **overrides)
    model, trace = train(ds, cfg)
    h = hashlib.sha256()
    for net in (model.lf_block, model.hf_block, model.discriminator):
        h.update(net.params.tobytes())
    h.update(np.array([(r.supervised, r.generative, r.discriminative) for r in trace]).tobytes())
    assert h.hexdigest() == digest


def test_checkpoint_round_trip_preserves_predictions(tmp_path):
    pair = get("forrester1d")
    ds = make_dataset(pair, 30, 4, seed=8)
    cfg = TrainingConfig(epochs_lf=20, epochs_hf=5, hidden_sizes=(6,), seed=2, normalizer="standard")
    model, _ = train(ds, cfg)
    path = save_checkpoint(model, cfg, tmp_path / "ckpt.json")
    again, cfg_again = load_checkpoint(path)
    assert cfg_again == cfg
    probe = np.linspace(0, 1, 9)[:, None]
    np.testing.assert_array_equal(again.predict(probe), model.predict(probe))
    assert again.lf_block.frozen


def test_model_rejects_normalizers_of_the_wrong_width():
    model, _, _, _ = toy_problem()  # d1 = d2 = 1
    blocks = (model.lf_block, model.hf_block, model.discriminator)
    two = Normalizer("minmax", np.zeros(2), np.ones(2))
    for position in range(3):
        norms = [Normalizer.identity()] * 3
        norms[position] = two
        with pytest.raises(ValueError, match=r"normalizer shift/scale shapes \(\(2,\), \(2,\)\) do not match width 1"):
            GanMdfModel(*blocks, *norms)
    one = Normalizer("standard", np.zeros(1), np.ones(1))
    assert GanMdfModel(*blocks, one, one, one).input_norm is one


def test_save_checkpoint_replaces_the_file_atomically(tmp_path, monkeypatch):
    """A write that fails part-way leaves the previous checkpoint byte for
    byte and no temporary file behind."""
    model, _, _, cfg = toy_problem()
    path = save_checkpoint(model, cfg, tmp_path / "ckpt.json")
    before = path.read_bytes()
    real_write_text = Path.write_text

    def failing_write_text(self, data, *args, **kwargs):
        real_write_text(self, data[:10], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, replace(cfg, seed=99), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]


def test_checkpoint_rejects_unknown_version(tmp_path):
    model, _, _, cfg = toy_problem()
    path = save_checkpoint(model, cfg, tmp_path / "ckpt.json")
    doc = json.loads(path.read_text())
    doc["format_version"] = 42
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"format_version": 1, "model": [1]},
        {"format_version": 1, "model": {"lf_block": {}, "hf_block": {}, "discriminator": {}, "normalizers": []}},
    ],
)
def test_checkpoint_rejects_non_object_documents(tmp_path, doc):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_checkpoint(path)


def test_loss_trace_csv_round_trips(tmp_path):
    cfg = tiny_config(epochs_hf=3)
    model, hf_x, hf_y, _ = toy_problem(cfg)
    trace = train_adversarial(model, hf_x, hf_y, cfg)
    path = write_loss_trace(trace, tmp_path / "trace.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,loss_supervised,loss_generative,loss_discriminative"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == trace[0].supervised
