"""Two-block generator/discriminator model for multi-fidelity data fusion.

The generator is a pair of dense networks: a low-fidelity block that maps an
input x to a feature vector q (trained on the abundant low-fidelity samples,
then frozen), and a high-fidelity block that maps the concatenation (x, q) to
the high-fidelity response estimate. The discriminator scores a response
vector as real-high-fidelity (toward 1) or generated (toward 0).

Adversarial training interleaves three losses per iteration on the current
mini-batch, in five stages:

    1. supervised step on the high-fidelity block (squared error, rate lr_sup)
    2. discriminative step (rate lr_disc)
    3. supervised step
    4. generative step (rate lr_gen)
    5. supervised step

In the default ``coupled`` mode stages 2 and 4 each update both the
high-fidelity block and the discriminator; in ``standard-gan`` mode the
discriminative loss updates only the discriminator and the generative loss
only the high-fidelity block. Disabling ``supervised_trick`` skips stages
1, 3 and 5, leaving a purely adversarial trainer.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import NORMALIZER_KINDS, MultiFidelityDataset, Normalizer, write_csv
from .nn import (
    IDENTITY,
    SIGMOID,
    AdamState,
    DenseNetwork,
    FrozenNetworkError,
    NonFiniteError,
    parse_activation,
)

MODE_COUPLED = "coupled"
MODE_STANDARD_GAN = "standard-gan"
MODES = (MODE_COUPLED, MODE_STANDARD_GAN)

HF_BATCH_CAP = 32  # high-fidelity mini-batch rule, min(32, n_hf): adversarial phase and hf-only baseline

CHECKPOINT_FORMAT_VERSION = 1

# distinct deterministic seed streams derived from the config seed
_SEED_LF_NET, _SEED_HF_NET, _SEED_DISC_NET = 0, 1, 2
_SEED_LF_SHUFFLE, _SEED_HF_SHUFFLE = 3, 4


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss, pre-activation or gradient stops being finite."""


@dataclass
class TrainingConfig:
    """Learning rates, schedule lengths, architecture and mode flags."""

    lr_lf: float = 0.03      # low-fidelity block pretraining
    lr_disc: float = 0.002   # discriminative-loss updates
    lr_gen: float = 0.001    # generative-loss updates
    lr_sup: float = 0.05     # supervised-loss updates
    epochs_lf: int = 4000
    epochs_hf: int = 350
    lf_batch_cap: int = 32
    hidden_sizes: tuple[int, ...] = (32, 32)
    hidden_activations: tuple[str, ...] = ("sigmoid",)
    leaky_alpha: float = 0.01
    normalizer: str = "none"
    mode: str = MODE_COUPLED
    supervised_trick: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        self.hidden_sizes = tuple(int(s) for s in self.hidden_sizes)
        self.hidden_activations = tuple(self.hidden_activations)
        for name in ("lr_lf", "lr_disc", "lr_gen", "lr_sup"):
            if not 0 <= getattr(self, name) < math.inf:  # also false for nan
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if self.epochs_lf < 0 or self.epochs_hf < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.lf_batch_cap < 1:
            raise ValueError("lf_batch_cap must be at least 1")
        if not self.hidden_sizes or any(s < 1 for s in self.hidden_sizes):
            raise ValueError("hidden_sizes must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.normalizer not in NORMALIZER_KINDS:
            raise ValueError(f"normalizer must be one of {NORMALIZER_KINDS}")
        n_acts = len(self.hidden_activations)
        if n_acts not in (1, len(self.hidden_sizes)):
            raise ValueError(
                f"{len(self.hidden_sizes)} hidden layers take 1 or "
                f"{len(self.hidden_sizes)} activations, got {n_acts}"
            )
        if self.lr_disc <= self.lr_gen:
            warnings.warn(
                "lr_disc <= lr_gen: the discriminative rate is usually the larger one",
                stacklevel=2,
            )

    def resolved_activations(self) -> list:
        names = self.hidden_activations
        if len(names) == 1:
            names = names * len(self.hidden_sizes)
        return [parse_activation(name, self.leaky_alpha) for name in names]

    def to_dict(self) -> dict:
        """The fields in declaration order; tuples serialize as JSON lists."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainingConfig":
        return cls(**doc)


@dataclass(frozen=True)
class TraceRow:
    """Loss values observed during one adversarial iteration."""

    iteration: int
    supervised: float
    generative: float
    discriminative: float


class GanMdfModel:
    """The fused surrogate: low-fidelity block, high-fidelity block, discriminator."""

    def __init__(
        self,
        lf_block: DenseNetwork,
        hf_block: DenseNetwork,
        discriminator: DenseNetwork,
        input_norm: Normalizer | None = None,
        lf_output_norm: Normalizer | None = None,
        hf_output_norm: Normalizer | None = None,
    ) -> None:
        d1, d2 = lf_block.input_width, lf_block.output_width
        if hf_block.input_width != d1 + d2:
            raise ValueError(
                f"high-fidelity block input width must be {d1 + d2}, got {hf_block.input_width}"
            )
        if hf_block.output_width != d2:
            raise ValueError("high- and low-fidelity block output widths differ")
        if discriminator.input_width != d2 or discriminator.output_width != 1:
            raise ValueError(f"discriminator must map {d2} -> 1")
        self.lf_block = lf_block
        self.hf_block = hf_block
        self.discriminator = discriminator
        self.input_norm = input_norm or Normalizer.identity()
        self.lf_output_norm = lf_output_norm or Normalizer.identity()
        self.hf_output_norm = hf_output_norm or Normalizer.identity()
        for what, norm, width in (
            ("inputs", self.input_norm, d1),
            ("lf_outputs", self.lf_output_norm, d2),
            ("hf_outputs", self.hf_output_norm, d2),
        ):
            shapes = (np.shape(norm.shift), np.shape(norm.scale))
            if norm.kind != "none" and shapes != ((width,), (width,)):
                raise ValueError(f"{what} normalizer shift/scale shapes {shapes} do not match width {width}")

    @classmethod
    def build(cls, d1: int, d2: int, config: TrainingConfig) -> "GanMdfModel":
        hidden = list(config.hidden_sizes)
        acts = config.resolved_activations()

        def rng(tag: int) -> np.random.Generator:
            return np.random.default_rng(np.random.SeedSequence([config.seed, tag]))

        lf = DenseNetwork([d1, *hidden, d2], acts, IDENTITY, seed=rng(_SEED_LF_NET))
        hf = DenseNetwork([d1 + d2, *hidden, d2], acts, IDENTITY, seed=rng(_SEED_HF_NET))
        disc = DenseNetwork([d2, *hidden, 1], acts, SIGMOID, seed=rng(_SEED_DISC_NET))
        return cls(lf, hf, disc)

    @property
    def d1(self) -> int:
        return self.lf_block.input_width

    @property
    def d2(self) -> int:
        return self.lf_block.output_width

    def fit_normalizers(self, dataset: MultiFidelityDataset, kind: str) -> None:
        """Fit input scaling on the low-fidelity inputs (the better-covering
        set) and output scaling per fidelity on the matching responses."""
        self.input_norm = Normalizer.fit(kind, dataset.lf_x)
        self.lf_output_norm = Normalizer.fit(kind, dataset.lf_y)
        self.hf_output_norm = Normalizer.fit(kind, dataset.hf_y)

    def generator_forward(self, x: np.ndarray) -> np.ndarray:
        """Compose the two generator blocks: x -> q -> response estimate.

        The high-fidelity block sees the input stacked before the feature
        vector: (x_1..x_d1, q_1..q_d2). Takes a batch of rows, shape (n, d1).
        """
        x = np.asarray(x, dtype=float)
        q, _ = self.lf_block.forward(x)
        stacked = np.concatenate([x, q], axis=1)
        out, _ = self.hf_block.forward(stacked)
        return out

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return normalized_predict(
            self.generator_forward, inputs, self.d1, self.input_norm, self.hf_output_norm
        )

    def lf_checksum(self) -> str:
        return self.lf_block.checksum()

    def to_dict(self) -> dict:
        return {
            "lf_block": self.lf_block.to_dict(),
            "hf_block": self.hf_block.to_dict(),
            "discriminator": self.discriminator.to_dict(),
            "normalizers": {
                "inputs": self.input_norm.to_dict(),
                "lf_outputs": self.lf_output_norm.to_dict(),
                "hf_outputs": self.hf_output_norm.to_dict(),
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GanMdfModel":
        norms = doc["normalizers"]
        return cls(
            DenseNetwork.from_dict(doc["lf_block"]),
            DenseNetwork.from_dict(doc["hf_block"]),
            DenseNetwork.from_dict(doc["discriminator"]),
            Normalizer.from_dict(norms["inputs"]),
            Normalizer.from_dict(norms["lf_outputs"]),
            Normalizer.from_dict(norms["hf_outputs"]),
        )


def normalized_predict(
    forward, inputs: np.ndarray, width: int, input_norm: Normalizer, output_norm: Normalizer
) -> np.ndarray:
    """Evaluate a normalized-space map on raw inputs (a vector or batch rows):
    apply the fitted input transform, run ``forward`` on the batch, and undo
    the output transform. A finite row that overflows in the input transform
    or in ``forward`` is bad input: a ValueError names the first such row."""
    inputs = np.asarray(inputs, dtype=float)
    single = inputs.ndim == 1
    batch = np.atleast_2d(inputs)
    if batch.shape[1] != width:
        raise ValueError(f"expected inputs of width {width}, got shape {inputs.shape}")

    def out_of_range(row: int, why: str) -> ValueError:
        return ValueError(f"input row {row} {batch[row].tolist()} is out of range: {why}")

    with np.errstate(over="ignore", invalid="ignore"):
        z = input_norm.transform(batch)
        finite = np.isfinite(z).all(axis=1)
        if not finite.all():
            row = int(np.flatnonzero(~finite)[0])
            raise out_of_range(row, "the input normalizer maps it to a non-finite value")
        try:
            pred = forward(z)
        except NonFiniteError:
            # rows are evaluated independently, so the culprit fails alone
            for row in range(len(z)):
                try:
                    forward(z[row : row + 1])
                except NonFiniteError:
                    raise out_of_range(row, "the network overflows on it") from None
            raise
    out = output_norm.inverse_transform(pred)
    return out[0] if single else out


# -- losses ------------------------------------------------------------------
#
# Each returns the loss and its gradient with respect to the scores or
# predictions it was given, the upstream that backpropagation starts from,
# and raises NonFiniteError when the loss is not finite.


def _finite(loss: float, name: str) -> float:
    if not math.isfinite(loss):
        raise NonFiniteError(f"{name} loss became non-finite")
    return loss


def _mean(a: np.ndarray) -> np.floating:
    """``a.mean()`` with the same bits, without numpy's Python-level wrapper."""
    return np.add.reduce(a, axis=None) / a.size


def squared_error(pred: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Supervised loss: mean over the batch of the squared Euclidean error."""
    resid = pred - y
    n = resid.shape[0]
    loss = np.add.reduce(np.add.reduce(resid * resid, axis=1)) / n
    return _finite(float(loss), "squared-error"), 2.0 * resid / n


def discriminative(real: np.ndarray, fake: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean of (1 - D[real response]) plus mean of D[generated response];
    returns the loss and the upstreams of the real and the fake scores."""
    loss = _finite(float(_mean(1.0 - real) + _mean(fake)), "discriminative")
    return loss, np.full_like(real, -1.0 / real.shape[0]), np.full_like(fake, 1.0 / fake.shape[0])


def generative(fake: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over the batch of (1 - D[G[x]])."""
    return _finite(float(_mean(1.0 - fake)), "generative"), np.full_like(fake, -1.0 / fake.shape[0])


# -- training ----------------------------------------------------------------


def _batches(x: np.ndarray, y: np.ndarray, cap: int, rng: np.random.Generator):
    """Mini-batches of (x, y) rows for one epoch, each C-contiguous. A batch
    covering the whole set is the set itself, in its natural order;
    otherwise rows are shuffled per epoch, gathered once, and each batch is a
    view of consecutive shuffled rows."""
    n = x.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"{n} input rows but {y.shape[0]} response rows")
    size = min(cap, n)
    if size >= n:
        yield np.ascontiguousarray(x), np.ascontiguousarray(y)
        return
    perm = rng.permutation(n)
    x, y = x[perm], y[perm]
    for i in range(0, n, size):
        yield x[i : i + size], y[i : i + size]


def _supervised_step(net: DenseNetwork, x: np.ndarray, y: np.ndarray, state: AdamState, lr: float) -> float:
    """One Adam step on the squared error; returns the loss before the step."""
    pred, tape = net.forward(x)
    loss, upstream = squared_error(pred, y)
    grad, _ = net.gradient(tape, upstream, input_grad=False)
    net.apply_adam(grad, state, lr)
    return loss


def fit_regression(
    net: DenseNetwork,
    x: np.ndarray,
    y: np.ndarray,
    lr: float,
    epochs: int,
    batch_cap: int,
    rng: np.random.Generator,
    label: str = "regression",
) -> list[float]:
    """Adam on the mean squared-norm residual; returns per-epoch losses."""
    state = AdamState(net.params)
    trace: list[float] = []
    try:
        for epoch in range(epochs):
            epoch_losses = []
            for x_b, y_b in _batches(x, y, batch_cap, rng):
                epoch_losses.append(_supervised_step(net, x_b, y_b, state, lr))
            trace.append(float(np.add.reduce(epoch_losses) / len(epoch_losses)))
    except NonFiniteError as exc:
        raise TrainingDivergedError(f"{label} diverged at epoch {epoch}: {exc}") from exc
    return trace


def pretrain_lf(model: GanMdfModel, lf_x: np.ndarray, lf_y: np.ndarray, config: TrainingConfig) -> list[float]:
    """Fit the low-fidelity block on normalized low-fidelity samples, then
    freeze it for the rest of training. Returns per-epoch losses."""
    if np.shape(lf_x)[1:] != (model.d1,) or np.shape(lf_y)[1:] != (model.d2,):
        raise ValueError("low-fidelity sample shapes do not match the model")
    if len(lf_x) == 0:
        raise ValueError("empty low-fidelity sample set")
    if model.lf_block.frozen:
        raise FrozenNetworkError("low-fidelity block is already frozen")
    x = model.input_norm.transform(lf_x)
    y = model.lf_output_norm.transform(lf_y)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SEED_LF_SHUFFLE]))
    trace = fit_regression(
        model.lf_block, x, y, config.lr_lf, config.epochs_lf, config.lf_batch_cap, rng,
        label="low-fidelity pretraining",
    )
    model.lf_block.freeze()
    return trace


def train_adversarial(
    model: GanMdfModel, hf_x: np.ndarray, hf_y: np.ndarray, config: TrainingConfig
) -> list[TraceRow]:
    """Run the interleaved adversarial schedule over the high-fidelity samples.

    One epoch is one pass over the high-fidelity set in mini-batches of
    min(32, n_hf); each mini-batch is one adversarial iteration running the
    five update stages described in the module docstring. Returns the
    per-iteration loss trace.
    """
    if np.shape(hf_x)[1:] != (model.d1,) or np.shape(hf_y)[1:] != (model.d2,):
        raise ValueError("high-fidelity sample shapes do not match the model")
    if len(hf_x) < 2:
        raise ValueError("adversarial training needs at least two high-fidelity samples")
    if not model.lf_block.frozen:
        raise FrozenNetworkError("low-fidelity block must be pretrained and frozen first")

    lf_sum_before = model.lf_checksum()
    x = model.input_norm.transform(hf_x)
    y = model.hf_output_norm.transform(hf_y)
    # the low-fidelity block is frozen, so its features are constant all run
    q, _ = model.lf_block.forward(x)
    gen_inputs = np.concatenate([x, q], axis=1)

    hf_net, disc = model.hf_block, model.discriminator
    st_hf_sup = AdamState(hf_net.params)
    st_hf_disc = AdamState(hf_net.params)
    st_hf_gen = AdamState(hf_net.params)
    st_disc_disc = AdamState(disc.params)
    st_disc_gen = AdamState(disc.params)
    coupled = config.mode == MODE_COUPLED
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SEED_HF_SHUFFLE]))

    trace: list[TraceRow] = []
    iteration = 0
    try:
        for _epoch in range(config.epochs_hf):
            for gen_in, y_b in _batches(gen_inputs, y, HF_BATCH_CAP, rng):
                iteration += 1

                # stage 1: supervised refinement (measured even when disabled)
                stage = "supervised"
                if config.supervised_trick:
                    loss_sup = _supervised_step(hf_net, gen_in, y_b, st_hf_sup, config.lr_sup)
                else:
                    # no update before stage 2, which reuses this pass
                    fake_pred, tape_hf = hf_net.forward(gen_in)
                    loss_sup, _ = squared_error(fake_pred, y_b)

                # stage 2: discriminative loss; both gradients are taken at the
                # current parameters, then applied together
                stage = "discriminative"
                real, tape_real = disc.forward(y_b)
                if config.supervised_trick:
                    fake_pred, tape_hf = hf_net.forward(gen_in)
                fake, tape_fake = disc.forward(fake_pred)
                loss_disc, up_real, up_fake = discriminative(real, fake)
                g_real, _ = disc.gradient(tape_real, up_real, input_grad=False)
                g_fake, into_fake = disc.gradient(tape_fake, up_fake, input_grad=coupled)
                if coupled:
                    g_hf, _ = hf_net.gradient(tape_hf, into_fake, input_grad=False)
                    hf_net.apply_adam(g_hf, st_hf_disc, config.lr_disc)
                disc.apply_adam(g_real + g_fake, st_disc_disc, config.lr_disc)

                # stage 3: supervised refinement
                stage = "supervised"
                if config.supervised_trick:
                    _supervised_step(hf_net, gen_in, y_b, st_hf_sup, config.lr_sup)

                # stage 4: generative loss
                stage = "generative"
                fake_pred, tape_hf = hf_net.forward(gen_in)
                fake, tape_fake = disc.forward(fake_pred)
                loss_gen, up_fake = generative(fake)
                g_disc, into_fake = disc.gradient(tape_fake, up_fake)
                g_hf, _ = hf_net.gradient(tape_hf, into_fake, input_grad=False)
                hf_net.apply_adam(g_hf, st_hf_gen, config.lr_gen)
                if coupled:
                    disc.apply_adam(g_disc, st_disc_gen, config.lr_gen)

                # stage 5: supervised refinement
                stage = "supervised"
                if config.supervised_trick:
                    _supervised_step(hf_net, gen_in, y_b, st_hf_sup, config.lr_sup)

                trace.append(TraceRow(iteration, loss_sup, loss_gen, loss_disc))
    except NonFiniteError as exc:
        raise TrainingDivergedError(
            f"adversarial training diverged in the {stage} stage at iteration {iteration}: {exc}"
        ) from exc

    if model.lf_checksum() != lf_sum_before:
        raise FrozenNetworkError("frozen low-fidelity block changed during adversarial training")
    return trace


def train(dataset: MultiFidelityDataset, config: TrainingConfig) -> tuple[GanMdfModel, list[TraceRow]]:
    """Full pipeline: build, fit normalizers, pretrain, adversarial phase."""
    if dataset.n_hf < 2:  # checked here too, so that no pretraining is thrown away
        raise ValueError("adversarial training needs at least two high-fidelity samples")
    model = GanMdfModel.build(dataset.d1, dataset.d2, config)
    model.fit_normalizers(dataset, config.normalizer)
    pretrain_lf(model, dataset.lf_x, dataset.lf_y, config)
    trace = train_adversarial(model, dataset.hf_x, dataset.hf_y, config)
    return model, trace


# -- persistence ---------------------------------------------------------------


def save_checkpoint(model: GanMdfModel, config: TrainingConfig, path) -> Path:
    path = Path(path)
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "seed": config.seed,
        "config": config.to_dict(),
        "model": model.to_dict(),
    }
    # write a sibling file and rename it over the target, so that a failed
    # write never leaves a truncated checkpoint where a good one was
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(path) -> tuple[GanMdfModel, TrainingConfig]:
    doc = _json_object(json.loads(Path(path).read_text(encoding="utf-8")), "checkpoint")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    model = _json_object(doc.get("model"), "checkpoint model")
    for part in ("lf_block", "hf_block", "discriminator", "normalizers"):
        _json_object(model.get(part), f"checkpoint {part}")
    return GanMdfModel.from_dict(model), TrainingConfig.from_dict(doc["config"])


def _json_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def write_loss_trace(trace: list[TraceRow], path) -> Path:
    return write_csv(
        path,
        ["iteration", "loss_supervised", "loss_generative", "loss_discriminative"],
        ([row.iteration, row.supervised, row.generative, row.discriminative] for row in trace),
    )
