"""Activation functions for the dense-network engine.

All kinds act elementwise except ``dft``, which mixes the whole
pre-activation vector of a layer: it returns the real part of the
one-dimensional discrete Fourier transform of that vector, so its
output width equals its input width.

The sigmoid is computed without masks, yet bit-identical to the masked
overflow-free form: exactly the bits of 1/(1+exp(-v)) where v >= 0 and of
exp(v)/(1+exp(v)) elsewhere. Every trained parameter and reported number
depends on those bits; a form that rounds differently, such as
0.5*(1+tanh(v/2)), moves them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a value stops being finite: a pre-activation, a gradient
    or a training loss."""


def all_finite(a: np.ndarray) -> bool:
    """True when no entry is inf or nan (counting is cheaper than ``.all()``
    on the small arrays of a training step)."""
    return np.count_nonzero(np.isfinite(a)) == a.size


KINDS = ("identity", "sigmoid", "leaky_relu", "ricker", "dft", "inverse_multiquadratic")


@dataclass(frozen=True)
class Activation:
    """Activation tag: a kind plus any shape parameter it needs."""

    kind: str
    alpha: float = 0.01  # leaky_relu slope; ignored by other kinds

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r} (choose from {KINDS})")
        if self.kind == "leaky_relu" and not self.alpha > 0:
            raise ValueError("leaky_relu slope must be positive")

    def to_dict(self) -> dict:
        if self.kind == "leaky_relu":
            return {"kind": self.kind, "alpha": self.alpha}
        return {"kind": self.kind}

    @classmethod
    def from_dict(cls, spec: dict) -> "Activation":
        return cls(spec["kind"], spec.get("alpha", 0.01))


IDENTITY = Activation("identity")
SIGMOID = Activation("sigmoid")
RICKER = Activation("ricker")
DFT = Activation("dft")
INVERSE_MULTIQUADRATIC = Activation("inverse_multiquadratic")


def leaky_relu(alpha: float = 0.01) -> Activation:
    return Activation("leaky_relu", alpha)


def parse_activation(spec: str, alpha: float = 0.01) -> Activation:
    """Build an Activation from a name like ``sigmoid`` or ``leaky_relu``."""
    return Activation(spec.strip().lower(), alpha)


@lru_cache(maxsize=None)
def _dft_real_matrix(width: int) -> np.ndarray:
    # Real part of exp(-2*pi*i*n*k/M) is cos(2*pi*n*k/M); the matrix is symmetric.
    n = np.arange(width)
    mat = np.cos(2.0 * np.pi * np.outer(n, n) / width)
    mat.flags.writeable = False
    return mat


def _stable_sigmoid(v: np.ndarray) -> np.ndarray:
    # v >= 0: exp(0) / (1 + exp(-v));  v < 0: exp(v) / (1 + exp(v))
    return np.exp(np.minimum(v, 0.0)) / (1.0 + np.exp(-np.abs(v)))


def apply(act: Activation, v: np.ndarray) -> np.ndarray:
    """Apply an activation to a pre-activation vector (or batch of rows).

    For ``dft`` the last axis is treated as the full layer vector.
    Raises on non-finite input, and on an empty vector for ``dft``.
    """
    v = np.asarray(v, dtype=float)
    if not all_finite(v):
        raise NonFiniteError(f"non-finite input to {act.kind} activation")
    if act.kind == "identity":
        return v.copy()
    if act.kind == "sigmoid":
        return _stable_sigmoid(v)
    if act.kind == "leaky_relu":
        return np.where(v > 0, v, act.alpha * v)
    if act.kind == "ricker":
        u = np.pi * v / 1000.0
        u2 = u * u
        return (1.0 - 2.0 * u2 * np.exp(-u2)) ** 2
    if act.kind == "inverse_multiquadratic":
        return 1.0 / np.sqrt(1.0 + v * v)
    if act.kind == "dft":
        if v.shape[-1] == 0:
            raise ValueError("dft activation requires a non-empty vector")
        return v @ _dft_real_matrix(v.shape[-1]).T
    raise AssertionError(act.kind)


def backward(act: Activation, pre: np.ndarray, post: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient with respect to the pre-activation, given the upstream gradient.

    ``pre`` and ``post`` are the values recorded during the forward pass.
    """
    if act.kind == "identity":
        return upstream.copy()
    if act.kind == "sigmoid":
        return upstream * post * (1.0 - post)
    if act.kind == "leaky_relu":
        # the alpha branch covers pre == 0 exactly
        return upstream * np.where(pre > 0, 1.0, act.alpha)
    if act.kind == "ricker":
        u = np.pi * pre / 1000.0
        u2 = u * u
        e = np.exp(-u2)
        inner = 1.0 - 2.0 * u2 * e
        d_inner = -4.0 * u * (1.0 - u2) * e * (np.pi / 1000.0)
        return upstream * 2.0 * inner * d_inner
    if act.kind == "inverse_multiquadratic":
        return upstream * (-pre * post**3)
    if act.kind == "dft":
        return upstream @ _dft_real_matrix(pre.shape[-1])
    raise AssertionError(act.kind)
