"""Adam optimizer with bias correction."""

from __future__ import annotations

from typing import Callable

import numpy as np


class NonFiniteGradientError(RuntimeError):
    """Raised when a gradient contains NaN or infinity."""


class AdamState:
    """First/second moment accumulators and step counter for one parameter vector."""

    def __init__(
        self,
        params: np.ndarray,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.m = np.zeros_like(params, dtype=float)
        self.v = np.zeros_like(params, dtype=float)
        self.t = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    @classmethod
    def for_network(cls, net, **kwargs) -> "AdamState":
        return cls(net.params, **kwargs)


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    name_of: Callable[[int], str] | None = None,
) -> np.ndarray:
    """Update ``params`` in place with one bias-corrected Adam step.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps). A zero learning rate
    still advances the moment accumulators and the step counter. A non-finite
    gradient entry is reported by its flat index, or by ``name_of(index)``
    when given.
    """
    if lr < 0:
        raise ValueError(f"learning rate must be non-negative, got {lr}")
    grad = np.asarray(grad, dtype=float)
    if params.shape != grad.shape or state.m.shape != params.shape:
        raise ValueError(
            f"gradient shape {grad.shape}, parameter shape {params.shape} and "
            f"optimizer state shape {state.m.shape} differ"
        )
    if not np.isfinite(grad).all():
        index = int(np.flatnonzero(~np.isfinite(grad))[0])
        where = name_of(index) if name_of else f"index {index}"
        raise NonFiniteGradientError(f"non-finite gradient in {where}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    params -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params
