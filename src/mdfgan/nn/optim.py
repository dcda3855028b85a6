"""Adam optimizer with bias correction."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .activations import NonFiniteError, all_finite

# moment decay rates and denominator guard of every Adam step
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment accumulators and step counter for one parameter
    vector, plus two scratch vectors that each step overwrites."""

    def __init__(self, params: np.ndarray) -> None:
        self.m = np.zeros_like(params, dtype=float)
        self.v = np.zeros_like(params, dtype=float)
        self.t = 0
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    name_of: Callable[[int], str] | None = None,
) -> np.ndarray:
    """Update ``params`` and the moments in ``state`` in place with one
    bias-corrected Adam step.

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
    if not all_finite(grad):
        index = int(np.flatnonzero(~np.isfinite(grad))[0])
        where = name_of(index) if name_of else f"index {index}"
        raise NonFiniteError(f"non-finite gradient in {where}")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    # in place, rounding exactly as m = beta1*m + (1-beta1)*g,
    # v = beta2*v + (1-beta2)*g*g and lr*m_hat / (sqrt(v_hat) + eps)
    m, v = state.m, state.v
    a, b = state.scratch
    np.multiply(grad, 1.0 - BETA1, out=a)
    m *= BETA1
    m += a
    np.multiply(grad, 1.0 - BETA2, out=a)
    a *= grad
    v *= BETA2
    v += a
    np.divide(m, bc1, out=a)
    a *= lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    params -= a
    return params
