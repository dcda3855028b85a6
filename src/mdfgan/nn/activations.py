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

The constant operands of the hot loops, here and in the optimizer and the
losses, are read-only 0-d float64 arrays made by ``operand``, not Python
floats. Under NumPy 2 a Python float is a "weak" scalar whose type each ufunc
call resolves again; a 0-d float64 array holds the same double, so every
result keeps its bits and each call is cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a value stops being finite: a pre-activation, a gradient
    or a training loss."""


def operand(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array, a ufunc operand."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


HALF, ONE = operand(0.5), operand(1.0)


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
        if self.kind == "leaky_relu" and not 0 < self.alpha < np.inf:  # also false for nan
            raise ValueError(f"leaky_relu slope must be positive and finite, got {self.alpha}")


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


def _sigmoid(v: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # 0.5 * (1 + tanh(0.5 * v)), the same bits, computed in one buffer
    t = np.multiply(v, HALF, out=out)
    np.tanh(t, out=t)
    t += ONE
    t *= HALF
    return t


def _leaky_relu(v: np.ndarray, alpha: float, out: np.ndarray | None) -> np.ndarray:
    # v where v > 0 and alpha*v elsewhere: the larger of the two when
    # alpha <= 1, the smaller when alpha > 1
    t = np.multiply(v, alpha, out=out)
    (np.maximum if alpha <= 1 else np.minimum)(t, v, out=t)
    return t


def _into(result: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``result``, copied into ``out`` when one is given."""
    if out is None:
        return result
    np.copyto(out, result)
    return out


def apply(act: Activation, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply an activation to a pre-activation vector (or batch of rows).

    The result goes into ``out`` when given (same shape as ``v``, and not
    ``v`` itself), otherwise into a new array. For ``dft`` the last axis is
    treated as the full layer vector. Raises on non-finite input, and on an
    empty vector for ``dft``.
    """
    v = np.asarray(v, dtype=float)
    if not all_finite(v):
        raise NonFiniteError(f"non-finite input to {act.kind} activation")
    if act.kind == "identity":
        return np.positive(v, out=out)
    if act.kind == "sigmoid":
        return _sigmoid(v, out)
    if act.kind == "leaky_relu":
        return _leaky_relu(v, act.alpha, out)
    if act.kind == "ricker":
        u = np.pi * v / 1000.0
        u2 = u * u
        return _into((1.0 - 2.0 * u2 * np.exp(-u2)) ** 2, out)
    if act.kind == "inverse_multiquadratic":
        return _into(1.0 / np.sqrt(1.0 + v * v), out)
    if act.kind == "dft":
        if v.shape[-1] == 0:
            raise ValueError("dft activation requires a non-empty vector")
        return _into(v @ _dft_real_matrix(v.shape[-1]).T, out)
    raise AssertionError(act.kind)


def backward(
    act: Activation, pre: np.ndarray, post: np.ndarray, upstream: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Gradient with respect to the pre-activation, given the upstream gradient.

    ``pre`` and ``post`` are the values recorded during the forward pass.
    The result goes into ``out`` when given (same shape as ``upstream``,
    and none of the inputs), otherwise into a new array.
    """
    if act.kind == "identity":
        return np.positive(upstream, out=out)
    if act.kind == "sigmoid":
        t = np.multiply(upstream, post, out=out)
        t *= ONE - post
        return t
    if act.kind == "leaky_relu":
        if act.alpha > 1:
            return np.multiply(upstream, np.where(pre > 0, 1.0, act.alpha), out=out)
        # max(sign(pre), alpha): 1 where pre > 0, alpha elsewhere (pre == 0 too)
        slope = np.sign(pre, out=out)
        np.maximum(slope, act.alpha, out=slope)
        slope *= upstream
        return slope
    if act.kind == "ricker":
        u = np.pi * pre / 1000.0
        u2 = u * u
        e = np.exp(-u2)
        inner = 1.0 - 2.0 * u2 * e
        d_inner = -4.0 * u * (1.0 - u2) * e * (np.pi / 1000.0)
        return _into(upstream * 2.0 * inner * d_inner, out)
    if act.kind == "inverse_multiquadratic":
        return _into(upstream * (-pre * post**3), out)
    if act.kind == "dft":
        return _into(upstream @ _dft_real_matrix(pre.shape[-1]), out)
    raise AssertionError(act.kind)
