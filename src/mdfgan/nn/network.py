"""Dense feed-forward networks with explicit forward tapes and reverse-mode gradients.

A network keeps all of its parameters in one contiguous float vector laid out
as w0, b0, w1, b1, ... (each weight matrix row-major, shape (fan_out, fan_in)).
``weights[i]`` and ``biases[i]`` are reshaped views into that vector, and
gradients come back as one vector in the same layout, so the optimizer and the
checksum work on a single array.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import activations
from .activations import IDENTITY, Activation
from .optim import AdamState, adam_step

NETWORK_FORMAT_VERSION = 1


class FrozenNetworkError(RuntimeError):
    """Raised when a parameter update targets a frozen network."""


@dataclass
class Tape:
    """Per-layer record of one forward pass, sufficient for exact backprop."""

    inputs: np.ndarray
    pre: list[np.ndarray]
    post: list[np.ndarray]
    net: "DenseNetwork"
    version: int
    single: bool


def _layout(layer_sizes: list[int]) -> list[tuple[str, slice, tuple[int, ...]]]:
    """(name, span, shape) of each parameter block, in vector order:
    layer0.weight, layer0.bias, layer1.weight, ..."""
    blocks, start = [], 0
    for layer, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        for name, shape in ((f"layer{layer}.weight", (fan_out, fan_in)), (f"layer{layer}.bias", (fan_out,))):
            size = math.prod(shape)
            blocks.append((name, slice(start, start + size), shape))
            start += size
    return blocks


class DenseNetwork:
    """A fully connected network: per-layer weights, biases, and activations.

    ``layer_sizes`` lists the input width first and the output width last.
    ``hidden_activations`` has one entry per hidden layer; the output layer
    uses ``output_activation`` (identity for regression heads, sigmoid for
    a probability head). Weights start uniform in +/- sqrt(6/(fan_in+fan_out)),
    biases at zero, drawn from the given seed.
    """

    def __init__(
        self,
        layer_sizes: list[int],
        hidden_activations: list[Activation],
        output_activation: Activation = IDENTITY,
        *,
        seed: int | np.random.Generator = 0,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output width")
        if any(int(s) != s or s < 1 for s in layer_sizes):
            raise ValueError(f"layer sizes must be positive integers, got {layer_sizes}")
        n_hidden = len(layer_sizes) - 2
        if len(hidden_activations) != n_hidden:
            raise ValueError(
                f"{n_hidden} hidden layers need {n_hidden} activations, got {len(hidden_activations)}"
            )
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.hidden_activations = list(hidden_activations)
        self.output_activation = output_activation
        self.frozen = False

        self._blocks = _layout(self.layer_sizes)
        self._bind(np.zeros(self._blocks[-1][1].stop))
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        for w in self.weights:
            fan_out, fan_in = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    def _bind(self, params: np.ndarray) -> None:
        """Adopt ``params`` as the parameter vector and rebuild the views."""
        self.params = params
        self.weights, self.biases = self._split(params)
        self._version = 0

    def _split(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector in the parameter layout."""
        blocks = [vector[span].reshape(shape) for _, span, shape in self._blocks]
        return blocks[0::2], blocks[1::2]

    # -- structure ----------------------------------------------------------

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_width(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_width(self) -> int:
        return self.layer_sizes[-1]

    def activation_for_layer(self, layer: int) -> Activation:
        if layer == self.n_layers - 1:
            return self.output_activation
        return self.hidden_activations[layer]

    def block_name(self, index: int) -> str:
        """Name of the block, such as ``layer1.weight``, holding a parameter-vector index."""
        for name, span, _ in self._blocks:
            if span.start <= index < span.stop:
                return name
        raise IndexError(f"parameter index {index} out of range")

    # -- evaluation ---------------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, Tape]:
        """Evaluate the network on a vector or a batch of row vectors."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = np.atleast_2d(x)
        if a.ndim != 2 or a.shape[1] != self.input_width:
            raise ValueError(f"expected input width {self.input_width}, got shape {x.shape}")
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = []
        for layer in range(self.n_layers):
            z = a @ self.weights[layer].T + self.biases[layer]
            a = activations.apply(self.activation_for_layer(layer), z)
            pre.append(z)
            post.append(a)
        out = post[-1][0] if single else post[-1]
        return out, Tape(np.atleast_2d(x), pre, post, self, self._version, single)

    def gradient(self, tape: Tape, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagate ``upstream`` (= dLoss/dOutput) through a recorded forward pass.

        Returns the parameter gradient, one vector in the parameter layout,
        and the gradient with respect to the network input, both summed over
        the batch rows of the tape.
        """
        if tape.net is not self or tape.version != self._version:
            raise ValueError("stale tape: parameters changed since this forward pass")
        g = np.asarray(upstream, dtype=float)
        if tape.single and g.ndim == 1:
            g = g[None, :]
        if g.shape != tape.post[-1].shape:
            raise ValueError(
                f"upstream shape {np.shape(upstream)} does not match output shape {tape.post[-1].shape}"
            )
        grad = np.empty_like(self.params)
        d_weights, d_biases = self._split(grad)
        for layer in reversed(range(self.n_layers)):
            act = self.activation_for_layer(layer)
            gz = activations.backward(act, tape.pre[layer], tape.post[layer], g)
            below = tape.post[layer - 1] if layer > 0 else tape.inputs
            d_weights[layer][...] = gz.T @ below
            d_biases[layer][...] = gz.sum(axis=0)
            g = gz @ self.weights[layer]
        input_grad = g[0] if tape.single else g
        return grad, input_grad

    # -- mutation -----------------------------------------------------------

    def freeze(self) -> None:
        self.frozen = True

    def apply_adam(self, grad: np.ndarray, state: AdamState, lr: float) -> None:
        """Take one Adam step on this network's parameters."""
        if self.frozen:
            raise FrozenNetworkError("network is frozen; parameter updates are forbidden")
        adam_step(self.params, grad, state, lr, name_of=self.block_name)
        self._version += 1

    def checksum(self) -> str:
        """SHA-256 over the raw parameter bytes; stable iff parameters are."""
        return hashlib.sha256(self.params.tobytes()).hexdigest()

    def copy(self) -> "DenseNetwork":
        dup = copy.copy(self)
        dup._bind(self.params.copy())
        return dup

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": NETWORK_FORMAT_VERSION,
            "layer_sizes": self.layer_sizes,
            "hidden_activations": [a.to_dict() for a in self.hidden_activations],
            "output_activation": self.output_activation.to_dict(),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "frozen": self.frozen,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DenseNetwork":
        version = doc.get("format_version")
        if version != NETWORK_FORMAT_VERSION:
            raise ValueError(f"unsupported network format version {version!r}")
        net = cls(
            doc["layer_sizes"],
            [Activation.from_dict(a) for a in doc["hidden_activations"]],
            Activation.from_dict(doc["output_activation"]),
        )
        if not len(doc["weights"]) == len(doc["biases"]) == net.n_layers:
            raise ValueError(f"expected {net.n_layers} weight and bias arrays for layer_sizes")
        for layer, (w, b) in enumerate(zip(doc["weights"], doc["biases"])):
            w, b = np.asarray(w, dtype=float), np.asarray(b, dtype=float)
            if w.shape != net.weights[layer].shape or b.shape != net.biases[layer].shape:
                raise ValueError(f"layer {layer} arrays do not match layer_sizes")
            net.weights[layer][...] = w
            net.biases[layer][...] = b
        net.frozen = bool(doc.get("frozen", False))
        return net
