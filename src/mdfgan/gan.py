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
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import (NO_SAMPLES, NORMALIZER_KINDS, MultiFidelityDataset, Normalizer, field_value, json_object,
                   read_text, stream, write_csv, write_json)
from .nn import (
    IDENTITY,
    SIGMOID,
    AdamState,
    DenseNetwork,
    FrozenNetworkError,
    NonFiniteError,
    Tape,
    param_count,
    parse_activation,
)
from .nn.activations import ONE, operand

MODE_COUPLED = "coupled"
MODE_STANDARD_GAN = "standard-gan"
MODES = (MODE_COUPLED, MODE_STANDARD_GAN)

ROLES = ("lf_block", "hf_block", "discriminator")  # the networks' names in a checkpoint
NORMALIZED = ("inputs", "lf_outputs", "hf_outputs")  # the normalizers' names in a checkpoint

HF_BATCH_CAP = 32  # high-fidelity mini-batch rule, min(32, n_hf): adversarial phase and hf-only baseline

CHECKPOINT_FORMAT_VERSION = 2

ENV_SEED = "MDFGAN_SEED"  # the variable the command line reads the seed from when --seed is not given


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss, pre-activation or gradient stops being finite."""


@dataclass(frozen=True)
class TrainingConfig:
    """Learning rates, schedule lengths, architecture and mode flags; metadata gives each field's flag and rule.
    Frozen: construction and ``dataclasses.replace`` apply the rule, and are the only ways to get another config."""

    lr_lf: float = field(default=0.03, metadata={"min": 0, "help": "low-fidelity block pretraining rate"})
    lr_disc: float = field(default=0.002, metadata={"min": 0, "help": "discriminative-loss update rate"})
    lr_gen: float = field(default=0.001, metadata={"min": 0, "help": "generative-loss update rate"})
    lr_sup: float = field(default=0.05, metadata={"min": 0, "help": "supervised-loss update rate"})
    epochs_lf: int = field(default=4000, metadata={"min": 0, "help": "low-fidelity block pretraining epochs"})
    epochs_hf: int = field(default=350, metadata={"min": 0, "help": "adversarial training epochs"})
    lf_batch_cap: int = field(default=32, metadata={"min": 1, "flag": None})
    hidden_sizes: tuple[int, ...] = field(
        default=(32, 32), metadata={"min": 1, "flag": "--hidden", "help": "hidden layer widths, e.g. 32,32"}
    )
    hidden_activations: tuple[str, ...] = field(
        default=("sigmoid",),
        metadata={"flag": "--activations", "help": "hidden activation kinds, e.g. sigmoid,leaky_relu"},
    )
    leaky_alpha: float = field(default=0.01, metadata={"above": 0, "help": "leaky_relu slope below zero"})
    normalizer: str = field(default="none", metadata={"choices": NORMALIZER_KINDS})
    mode: str = field(default=MODE_COUPLED, metadata={"choices": MODES})
    supervised_trick: bool = field(
        default=True,
        metadata={"flag": "--no-supervised", "help": "drop the supervised refinement steps (pure adversarial)"},
    )
    seed: int = field(default=0, metadata={"min": 0, "help": f"base seed (default: ${ENV_SEED} or 0)"})

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, field_value(f.name, getattr(self, f.name), f.default, f.metadata))
        n_acts = len(self.hidden_activations)
        if n_acts not in (1, len(self.hidden_sizes)):
            raise ValueError(
                f"{len(self.hidden_sizes)} hidden layers take 1 or "
                f"{len(self.hidden_sizes)} activations, got {n_acts}"
            )
        self.resolved_activations()  # an unknown kind raises here
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
        """The config ``to_dict`` wrote: every field's key, and no other."""
        names = [f.name for f in fields(cls)]
        for key in json_object(doc, "config", names):
            if key not in names:
                raise ValueError(f"unknown config key {key!r}")
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
        """The one definition of the three networks' architecture, in
        training and on load: a checkpoint stores the config and each
        network's parameters, not its layers, so a change to what this
        derives from (d1, d2, config) must bump CHECKPOINT_FORMAT_VERSION."""
        acts = config.resolved_activations()
        lf_sizes, hf_sizes, disc_sizes = layer_sizes(d1, d2, config)
        lf = DenseNetwork(lf_sizes, acts, IDENTITY, seed=stream(config.seed, "lf_net"))
        hf = DenseNetwork(hf_sizes, acts, IDENTITY, seed=stream(config.seed, "hf_net"))
        disc = DenseNetwork(disc_sizes, acts, SIGMOID, seed=stream(config.seed, "disc_net"))
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

    def hf_inputs(self, x: np.ndarray) -> np.ndarray:
        """The high-fidelity block's input rows for a batch of rows x, shape
        (n, d1): each input stacked before its feature vector q from the
        low-fidelity block, (x_1..x_d1, q_1..q_d2)."""
        x = np.asarray(x, dtype=float)
        q, _ = self.lf_block.forward(x)
        return np.concatenate([x, q], axis=1)

    def generator_forward(self, x: np.ndarray) -> np.ndarray:
        """Compose the two generator blocks on a batch of rows: x -> q -> response estimate."""
        out, _ = self.hf_block.forward(self.hf_inputs(x))
        return out

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        return normalized_predict(
            self.generator_forward, inputs, self.d1, self.input_norm, self.hf_output_norm
        )

    def lf_checksum(self) -> str:
        return self.lf_block.checksum()

    def to_dict(self) -> dict:
        """What ``build`` cannot derive from the config: the widths, each
        network's parameters and frozen flag, and the normalizers."""
        return {
            "d1": self.d1,
            "d2": self.d2,
            **{
                role: {"params": net.params.tolist(), "frozen": net.frozen}
                for role, net in zip(ROLES, (self.lf_block, self.hf_block, self.discriminator))
            },
            "normalizers": {
                part: norm.to_dict()
                for part, norm in zip(NORMALIZED, (self.input_norm, self.lf_output_norm, self.hf_output_norm))
            },
        }

    @classmethod
    def from_dict(cls, doc: dict, config: TrainingConfig) -> "GanMdfModel":
        """The model ``to_dict`` wrote, its networks built from ``config``.
        Every key is checked, with ``d1`` and ``d2`` counts and ``frozen`` a
        bool, and each role's params against the layers ``build`` would make
        before anything is allocated: their count, and that each is a finite
        number."""
        json_object(doc, "model", ("d1", "d2", *ROLES, "normalizers"))
        d1, d2 = (field_value(key, doc[key], 1, {"min": 1}) for key in ("d1", "d2"))
        norms = json_object(doc["normalizers"], "normalizers", NORMALIZED)
        params = []
        for role, sizes in zip(ROLES, layer_sizes(d1, d2, config)):
            net = json_object(doc[role], role, ("params", "frozen"))
            try:
                field_value("frozen", net["frozen"], False, {})
                values = np.array(field_value("params", net["params"], (0.0,), {}))
                count = param_count(sizes)
                if values.shape != (count,):
                    raise ValueError(f"expected {count} params for layer_sizes {sizes}")
            except ValueError as exc:
                raise ValueError(f"{role}: {exc}") from None
            params.append(values)
        built = cls.build(d1, d2, config)
        nets = (built.lf_block, built.hf_block, built.discriminator)
        for role, net, values in zip(ROLES, nets, params):
            net.load_params(values)
            net.frozen = doc[role]["frozen"]
        return cls(*nets, *(Normalizer.from_dict(norms[part], f"{part} normalizer") for part in NORMALIZED))


def layer_sizes(d1: int, d2: int, config: TrainingConfig) -> tuple[list[int], list[int], list[int]]:
    """The layer sizes of the LF block, the HF block and the discriminator;
    the hf-only baseline's network has the LF block's."""
    hidden = list(config.hidden_sizes)
    return [d1, *hidden, d2], [d1 + d2, *hidden, d2], [d2, *hidden, 1]


def normalized_predict(
    forward, inputs: np.ndarray, width: int, input_norm: Normalizer, output_norm: Normalizer
) -> np.ndarray:
    """Evaluate a normalized-space map on raw inputs (a vector or batch rows):
    apply the fitted input transform, run ``forward`` on the batch, and undo
    the output transform. A finite row that overflows in the input transform,
    in ``forward`` or in the output transform is bad input: a ValueError
    names the first such row."""
    inputs = np.asarray(inputs, dtype=float)
    single = inputs.ndim == 1
    batch = np.atleast_2d(inputs)
    if batch.shape[1] != width:
        raise ValueError(f"expected inputs of width {width}, got shape {inputs.shape}")

    def out_of_range(row: int, why: str) -> ValueError:
        return ValueError(f"input row {row} {batch[row].tolist()} is out of range: {why}")

    def check_rows(values: np.ndarray, why: str) -> None:
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            raise out_of_range(int(np.flatnonzero(~finite)[0]), why)

    with np.errstate(over="ignore", invalid="ignore"):
        z = input_norm.transform(batch)
        check_rows(z, "the input normalizer maps it to a non-finite value")
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
        check_rows(out, "the output normalizer maps its prediction to a non-finite value")
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


_TWO = operand(2.0)


def _mean(a: np.ndarray) -> np.floating:
    """``a.mean()`` with the same bits, without numpy's Python-level wrapper."""
    return np.add.reduce(a, axis=None) / a.size


def squared_error(pred: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Supervised loss: mean over the batch of the squared Euclidean error."""
    resid = pred - y
    n = resid.shape[0]
    loss = np.add.reduce(np.add.reduce(resid * resid, axis=1)) / n
    # the upstream 2.0 * resid / n, rounded the same way, in resid's buffer
    resid *= _TWO
    resid /= n
    return _finite(float(loss), "squared-error"), resid


def discriminative(real: np.ndarray, fake: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean of (1 - D[real response]) plus mean of D[generated response];
    returns the loss and the upstreams of the real and the fake scores."""
    loss = _finite(float(_mean(ONE - real) + _mean(fake)), "discriminative")
    return loss, np.full_like(real, -1.0 / real.shape[0]), np.full_like(fake, 1.0 / fake.shape[0])


def generative(fake: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over the batch of (1 - D[G[x]])."""
    return _finite(float(_mean(ONE - fake)), "generative"), np.full_like(fake, -1.0 / fake.shape[0])


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


def _supervised_step(
    net: DenseNetwork, x: np.ndarray, y: np.ndarray, state: AdamState, lr: float, tape: Tape
) -> float:
    """One Adam step on the squared error, refilling ``tape``; returns the
    loss before the step."""
    pred, tape = net.forward(x, tape)
    loss, upstream = squared_error(pred, y)
    grad, _ = net.gradient(tape, upstream, input_grad=False)
    net.apply_adam(grad, state, lr)
    return loss


# the training loops check every value they make for finiteness and raise NonFiniteError,
# so numpy's overflow and invalid-value warnings would only print ahead of that error
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_quiet
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
    tape = Tape(net)
    trace: list[float] = []
    try:
        for epoch in range(epochs):
            epoch_losses = []
            for x_b, y_b in _batches(x, y, batch_cap, rng):
                epoch_losses.append(_supervised_step(net, x_b, y_b, state, lr, tape))
            trace.append(float(np.add.reduce(epoch_losses) / len(epoch_losses)))
    except NonFiniteError as exc:
        raise TrainingDivergedError(f"{label} diverged at epoch {epoch}: {exc}") from exc
    return trace


def pretrain_lf(model: GanMdfModel, lf_x: np.ndarray, lf_y: np.ndarray, config: TrainingConfig) -> list[float]:
    """Fit the low-fidelity block on normalized low-fidelity samples, then
    freeze it for the rest of training. Returns per-epoch losses."""
    if np.shape(lf_x)[1:] != (model.d1,) or np.shape(lf_y)[1:] != (model.d2,):
        raise ValueError("low-fidelity sample shapes do not match the model")
    if len(lf_x) == 0:  # else the squared error divides 0 by 0 and reads as a divergence
        raise ValueError(NO_SAMPLES)
    if model.lf_block.frozen:
        raise FrozenNetworkError("low-fidelity block is already frozen")
    x = model.input_norm.transform(lf_x)
    y = model.lf_output_norm.transform(lf_y)
    trace = fit_regression(
        model.lf_block, x, y, config.lr_lf, config.epochs_lf, config.lf_batch_cap, stream(config.seed, "lf_shuffle"),
        label="low-fidelity pretraining",
    )
    model.lf_block.freeze()
    return trace


def check_adversarial_budget(n_hf) -> None:
    """Raise unless ``n_hf``, an int under ``field_value``'s rule, is enough for an adversarial phase: two or more."""
    if field_value("n_hf", n_hf, 1, {}) < 2:
        raise ValueError(f"adversarial training needs at least two high-fidelity samples, got n_hf={n_hf}")


@_quiet
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
    check_adversarial_budget(len(hf_x))
    if not model.lf_block.frozen:
        raise FrozenNetworkError("low-fidelity block must be pretrained and frozen first")

    lf_sum_before = model.lf_checksum()
    y = model.hf_output_norm.transform(hf_y)

    hf_net, disc = model.hf_block, model.discriminator
    st_hf_sup = AdamState(hf_net.params)
    st_hf_disc = AdamState(hf_net.params)
    st_hf_gen = AdamState(hf_net.params)
    st_disc_disc = AdamState(disc.params)
    st_disc_gen = AdamState(disc.params)
    coupled = config.mode == MODE_COUPLED
    rng = stream(config.seed, "hf_shuffle")

    # one tape per role: the HF block, the discriminator on real and on generated responses
    tape_hf, tape_real, tape_fake = Tape(hf_net), Tape(disc), Tape(disc)
    trace: list[TraceRow] = []
    iteration = 0
    try:
        # the low-fidelity block is frozen, so the high-fidelity block's inputs are constant all run
        stage = "low-fidelity feature"
        gen_inputs = model.hf_inputs(model.input_norm.transform(hf_x))
        for _epoch in range(config.epochs_hf):
            for gen_in, y_b in _batches(gen_inputs, y, HF_BATCH_CAP, rng):
                iteration += 1

                # stage 1: supervised refinement (measured even when disabled)
                stage = "supervised"
                if config.supervised_trick:
                    loss_sup = _supervised_step(hf_net, gen_in, y_b, st_hf_sup, config.lr_sup, tape_hf)
                else:
                    # no update before stage 2, which reuses this pass
                    fake_pred, _ = hf_net.forward(gen_in, tape_hf)
                    loss_sup, _ = squared_error(fake_pred, y_b)

                # stage 2: discriminative loss; both gradients are taken at the
                # current parameters, then applied together
                stage = "discriminative"
                real, _ = disc.forward(y_b, tape_real)
                if config.supervised_trick:
                    fake_pred, _ = hf_net.forward(gen_in, tape_hf)
                fake, _ = disc.forward(fake_pred, tape_fake)
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
                    _supervised_step(hf_net, gen_in, y_b, st_hf_sup, config.lr_sup, tape_hf)

                # stage 4: generative loss
                stage = "generative"
                fake_pred, _ = hf_net.forward(gen_in, tape_hf)
                fake, _ = disc.forward(fake_pred, tape_fake)
                loss_gen, up_fake = generative(fake)
                g_disc, into_fake = disc.gradient(tape_fake, up_fake)
                g_hf, _ = hf_net.gradient(tape_hf, into_fake, input_grad=False)
                hf_net.apply_adam(g_hf, st_hf_gen, config.lr_gen)
                if coupled:
                    disc.apply_adam(g_disc, st_disc_gen, config.lr_gen)

                # stage 5: supervised refinement
                stage = "supervised"
                if config.supervised_trick:
                    _supervised_step(hf_net, gen_in, y_b, st_hf_sup, config.lr_sup, tape_hf)

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
    check_adversarial_budget(dataset.n_hf)  # checked here too, so that no pretraining is thrown away
    model = GanMdfModel.build(dataset.d1, dataset.d2, config)
    model.fit_normalizers(dataset, config.normalizer)
    pretrain_lf(model, dataset.lf_x, dataset.lf_y, config)
    trace = train_adversarial(model, dataset.hf_x, dataset.hf_y, config)
    return model, trace


# -- persistence ---------------------------------------------------------------


def save_checkpoint(model: GanMdfModel, config: TrainingConfig, path) -> Path:
    doc = {"format_version": CHECKPOINT_FORMAT_VERSION, "config": config.to_dict(), "model": model.to_dict()}
    return write_json(path, doc, indent=None)


def load_checkpoint(path) -> tuple[GanMdfModel, TrainingConfig]:
    try:
        doc = json_object(json.loads(read_text(path, "checkpoint")), "checkpoint")
    except RecursionError:  # json recurses once per nesting level
        raise ValueError("checkpoint nests too deeply to be read") from None
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    config = TrainingConfig.from_dict(doc.get("config"))
    return GanMdfModel.from_dict(doc.get("model"), config), config


def write_loss_trace(trace: list[TraceRow], path) -> Path:
    return write_csv(
        path,
        ["iteration", "loss_supervised", "loss_generative", "loss_discriminative"],
        ([row.iteration, row.supervised, row.generative, row.discriminative] for row in trace),
    )
