"""Dense feed-forward networks with explicit forward tapes and reverse-mode gradients.

A network keeps all of its parameters in one contiguous float vector laid out
as w0, b0, w1, b1, ... (each weight matrix row-major, shape (fan_out, fan_in)).
``weights[i]`` and ``biases[i]`` are reshaped views into that vector, and
gradients come back as one vector in the same layout, so the optimizer and the
checksum work on a single array.

A ``Tape`` owns all per-pass state of one network: the parameter-gradient
vector that backpropagation writes into, and, for each batch row count, the
layer buffers a forward and a backward pass write into, made on first use.
``forward(x, tape)`` refills the tape's buffers for ``len(x)`` rows in place,
so a training loop keeps one tape per network role and allocates no buffers
after its first step at each row count; what the tape recorded before, its
previous output included, is no longer valid. A tape of another network
raises. Without a tape, ``forward`` makes a new one. The layer products go
through ``np.dot`` into those buffers, which gives the same bits as ``@``
(tests pin this for every registered architecture). ``gradient`` hands out
new arrays: a copy of the tape's parameter gradient, and the input gradient.

``nn`` keeps no file format: a network is saved as its parameter vector by
whoever built it, and ``load_params`` reads such a vector back.
"""

from __future__ import annotations

import copy
import hashlib
import math

import numpy as np

from . import activations
from .activations import IDENTITY, Activation
from .optim import AdamState, adam_step


class FrozenNetworkError(RuntimeError):
    """Raised when a parameter update targets a frozen network."""


class Tape:
    """All per-pass state of one network: for each batch row count, the
    buffers its forward and backward passes write into, made on first use,
    and the parameter gradient. ``forward`` refills the buffers of its row
    count, so what they held before, the output included, is gone; ``pre``,
    ``post`` and the plans are those of the last pass.
    """

    def __init__(self, net: "DenseNetwork") -> None:
        self.net = net
        self.version = -1
        self.inputs: np.ndarray | None = None
        self.grad = np.empty_like(net.params)
        self._by_rows: dict[int, tuple] = {}

    def _select(self, rows: int) -> None:
        """Point ``pre``, ``post`` and the plans at the buffers for ``rows`` rows."""
        if rows not in self._by_rows:
            net, widths = self.net, self.net.layer_sizes[1:]
            pre = [np.empty((rows, w)) for w in widths]
            post = [np.empty((rows, w)) for w in widths]
            # what forward and gradient visit per layer, in the order they do,
            # with the transposed views their products take made once here;
            # below is the layer's input (None: the tape's inputs), grad_pre its
            # dLoss/d(pre-activation) and grad_in its dLoss/d(input), None on the
            # first layer, whose input gradient is handed out as a new array
            below = [None, *post[:-1]]
            grad_pre = [np.empty((rows, w)) for w in widths]
            grad_in = [None, *(np.empty((rows, w)) for w in widths[:-1])]
            d_weights, d_biases = net._split(self.grad)
            forward_plan = list(zip([w.T for w in net.weights], net.biases, net.layer_activations, pre, post))
            backward_plan = list(zip(
                net.weights, net.layer_activations, pre, post, below,
                grad_pre, [gz.T for gz in grad_pre], grad_in, d_weights, d_biases,
            ))[::-1]
            self._by_rows[rows] = pre, post, forward_plan, backward_plan
        self.pre, self.post, self.forward_plan, self.backward_plan = self._by_rows[rows]


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


def param_count(layer_sizes: list[int]) -> int:
    """The length of the parameter vector of a network with ``layer_sizes``."""
    return _layout(layer_sizes)[-1][1].stop


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
        # one activation per layer: the hidden ones, then the output one
        self.layer_activations = (*self.hidden_activations, output_activation)
        self.frozen = False

        self._blocks = _layout(self.layer_sizes)
        self._bind(np.zeros(param_count(self.layer_sizes)))
        rng = np.random.default_rng(seed)  # a Generator is returned as it is
        for w in self.weights:
            fan_out, fan_in = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    def _bind(self, params: np.ndarray) -> None:
        """Adopt ``params`` as the parameter vector and rebuild the views."""
        self.params = params
        self._version = 0
        self.weights, self.biases = self._split(params)

    def __getstate__(self) -> dict:
        # pickle the parameter vector alone; views would come back as copies
        state = self.__dict__.copy()
        del state["weights"], state["biases"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.weights, self.biases = self._split(self.params)

    def _split(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector in the parameter layout."""
        blocks = [vector[span].reshape(shape) for _, span, shape in self._blocks]
        return blocks[0::2], blocks[1::2]

    # -- structure ----------------------------------------------------------

    @property
    def input_width(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_width(self) -> int:
        return self.layer_sizes[-1]

    def block_name(self, index: int) -> str:
        """Name of the block, such as ``layer1.weight``, holding a parameter-vector index."""
        for name, span, _ in self._blocks:
            if span.start <= index < span.stop:
                return name
        raise IndexError(f"parameter index {index} out of range")

    # -- evaluation ---------------------------------------------------------

    def forward(self, x: np.ndarray, tape: Tape | None = None) -> tuple[np.ndarray, Tape]:
        """Evaluate the network on a batch of rows, shape (n, input width).

        A ``tape`` of this network is refilled in place for n rows, and the
        output returned is its buffer; without one a new tape is made. A
        tape of another network raises ValueError.
        """
        a = x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise ValueError(f"expected input width {self.input_width}, got shape {x.shape}")
        if tape is None:
            tape = Tape(self)
        elif tape.net is not self:
            raise ValueError("tape belongs to another network")
        tape._select(x.shape[0])
        tape.inputs, tape.version = x, -1  # no gradient from a pass that raised
        for w_t, b, act, z, post in tape.forward_plan:
            np.dot(a, w_t, out=z)
            z += b
            a = activations.apply(act, z, out=post)
        tape.version = self._version
        return a, tape

    def gradient(
        self, tape: Tape, upstream: np.ndarray, *, input_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Backpropagate ``upstream`` (= dLoss/dOutput) through a recorded forward pass.

        Returns the parameter gradient, a new vector in the parameter layout,
        and the gradient with respect to the network input, a new array, both
        summed over the batch rows of the tape. With ``input_grad=False`` the
        input gradient is None and the first layer's input product is
        skipped; the parameter gradient is the same either way.
        """
        if tape.net is not self or tape.version != self._version:
            raise ValueError("stale tape: parameters changed since this forward pass")
        g = np.asarray(upstream, dtype=float)
        if g.shape != tape.post[-1].shape:
            raise ValueError(
                f"upstream shape {np.shape(upstream)} does not match output shape {tape.post[-1].shape}"
            )
        for w, act, pre, post, below, gz, gz_t, into, d_w, d_b in tape.backward_plan:
            activations.backward(act, pre, post, g, out=gz)  # gz_t is its transposed view
            np.dot(gz_t, tape.inputs if below is None else below, out=d_w)
            np.add.reduce(gz, axis=0, out=d_b)
            if input_grad or into is not None:
                g = np.dot(gz, w, out=into)
        return tape.grad.copy(), (g if input_grad else None)

    # -- mutation -----------------------------------------------------------

    def freeze(self) -> None:
        self.frozen = True

    def apply_adam(self, grad: np.ndarray, state: AdamState, lr: float) -> None:
        """Take one Adam step on this network's parameters."""
        if self.frozen:
            raise FrozenNetworkError("network is frozen; parameter updates are forbidden")
        adam_step(self.params, grad, state, lr, name_of=self.block_name)
        self._version += 1

    def load_params(self, values) -> None:
        """Overwrite the parameter vector with ``values``, a flat sequence in
        the parameter layout of exactly ``params.size`` numbers."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.params.shape:
            raise ValueError(f"expected {self.params.size} params for layer_sizes {self.layer_sizes}")
        self.params[...] = values
        self._version += 1

    def checksum(self) -> str:
        """SHA-256 over the raw parameter bytes; stable iff parameters are."""
        return hashlib.sha256(self.params.tobytes()).hexdigest()

    def copy(self) -> "DenseNetwork":
        dup = copy.copy(self)
        dup._bind(self.params.copy())
        return dup
