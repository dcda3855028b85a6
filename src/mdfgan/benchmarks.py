"""Registry of analytic low-/high-fidelity benchmark pairs.

Each pair bundles two deterministic scalar fields on a common input box —
a cheap low-fidelity surrogate and the expensive high-fidelity truth —
plus the training configuration used by default when fusing them. The
ladder covers 1, 2, 6, 8, 20 and 30 input dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gan import TrainingConfig


@dataclass(frozen=True, eq=False)
class BenchmarkPair:
    """An analytic multi-fidelity problem: two maps R^d1 -> R^d2 on a box."""

    name: str
    d1: int
    d2: int
    bounds: np.ndarray
    lf_fn: Callable[[np.ndarray], np.ndarray]
    hf_fn: Callable[[np.ndarray], np.ndarray]
    default_config: TrainingConfig

    def _evaluate(self, fn, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d1:
            raise ValueError(f"{self.name} expects inputs of width {self.d1}, got shape {x.shape}")
        out = np.asarray(fn(x), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (x.shape[0], self.d2):
            raise ValueError(f"{self.name} returned shape {out.shape}")
        if not np.isfinite(out).all():
            raise ValueError(f"{self.name} produced a non-finite response")
        return out

    def evaluate_lf(self, x) -> np.ndarray:
        """Low-fidelity responses as an (n, d2) array."""
        return self._evaluate(self.lf_fn, x)

    def evaluate_hf(self, x) -> np.ndarray:
        """High-fidelity responses as an (n, d2) array."""
        return self._evaluate(self.hf_fn, x)


# -- 1-D pairs -----------------------------------------------------------------


def forrester_hf(x: np.ndarray) -> np.ndarray:
    t = x[:, 0]
    return (6.0 * t - 2.0) ** 2 * np.sin(12.0 * t - 4.0)


def forrester_lf(x: np.ndarray) -> np.ndarray:
    """Scaled truth plus a linear shift: correlated but biased."""
    t = x[:, 0]
    return 0.5 * forrester_hf(x) + 10.0 * (t - 0.5) - 5.0


def nonlinear_lf(x: np.ndarray) -> np.ndarray:
    return np.sin(8.0 * np.pi * x[:, 0])


def nonlinear_hf(x: np.ndarray) -> np.ndarray:
    """The truth is a nonlinear (quadratic) map of the low-fidelity field."""
    t = x[:, 0]
    return (t - np.sqrt(2.0)) * np.sin(8.0 * np.pi * t) ** 2


def oscillatory_hf(x: np.ndarray) -> np.ndarray:
    """Phase-shifted squared oscillation: nearly uncorrelated with the
    low-fidelity field, so fusion gains little here by construction."""
    t = x[:, 0]
    return t**2 + np.sin(8.0 * np.pi * t + np.pi / 10.0) ** 2


def jump_hf(x: np.ndarray) -> np.ndarray:
    t = x[:, 0]
    return forrester_hf(x) + 10.0 * (t > 0.5)


# -- 2-D Currin exponential ------------------------------------------------------


def _currin_core(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    # The 1 - exp(-1/(2 x2)) factor tends to 1 as x2 -> 0+.
    safe = np.where(x2 > 0.0, x2, 1.0)
    factor = np.where(x2 > 0.0, 1.0 - np.exp(-1.0 / (2.0 * safe)), 1.0)
    num = 2300.0 * x1**3 + 1900.0 * x1**2 + 2092.0 * x1 + 60.0
    den = 100.0 * x1**3 + 500.0 * x1**2 + 4.0 * x1 + 20.0
    return factor * num / den


def currin_hf(x: np.ndarray) -> np.ndarray:
    return _currin_core(x[:, 0], x[:, 1])


def currin_lf(x: np.ndarray) -> np.ndarray:
    """Average of four jittered truth evaluations (clamped at the x2 edge)."""
    x1, x2 = x[:, 0], x[:, 1]
    up = x2 + 0.05
    down = np.maximum(x2 - 0.05, 0.0)
    return 0.25 * (
        _currin_core(x1 + 0.05, up)
        + _currin_core(x1 + 0.05, down)
        + _currin_core(x1 - 0.05, up)
        + _currin_core(x1 - 0.05, down)
    )


# -- 6-D Hartmann ---------------------------------------------------------------

_H6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_H6_P = 1e-4 * np.array(
    [
        [1312, 1696, 5569, 124, 8283, 5886],
        [2329, 4135, 8307, 3736, 1004, 9991],
        [2348, 1451, 3522, 2883, 3047, 6650],
        [4047, 8828, 8732, 5743, 1091, 381],
    ],
    dtype=float,
)
_H6_ALPHA_HF = np.array([1.0, 1.2, 3.0, 3.2])
_H6_ALPHA_LF = np.array([0.5, 0.5, 2.0, 4.0])


def _hartmann6(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    # exponent[n, i] = sum_j A[i, j] * (x[n, j] - P[i, j])^2
    diff = x[:, None, :] - _H6_P[None, :, :]
    expo = (_H6_A[None, :, :] * diff**2).sum(axis=2)
    return -(alpha[None, :] * np.exp(-expo)).sum(axis=1)


def hartmann6_hf(x: np.ndarray) -> np.ndarray:
    return _hartmann6(x, _H6_ALPHA_HF)


def hartmann6_lf(x: np.ndarray) -> np.ndarray:
    """Same basin structure with degraded mixture coefficients."""
    return _hartmann6(x, _H6_ALPHA_LF)


# -- 8-D borehole flow ------------------------------------------------------------

_BOREHOLE_BOUNDS = np.array(
    [
        [0.05, 0.15],        # r_w: borehole radius
        [100.0, 50000.0],    # r: radius of influence
        [63070.0, 115600.0], # T_u: upper-aquifer transmissivity
        [990.0, 1110.0],     # H_u: upper-aquifer head
        [63.1, 116.0],       # T_l: lower-aquifer transmissivity
        [700.0, 820.0],      # H_l: lower-aquifer head
        [1120.0, 1680.0],    # L: borehole length
        [9855.0, 12045.0],   # K_w: hydraulic conductivity
    ]
)


def _borehole(x: np.ndarray, front: float, offset: float) -> np.ndarray:
    r_w, r, t_u, h_u, t_l, h_l, length, k_w = (x[:, j] for j in range(8))
    log_rr = np.log(r / r_w)
    den = log_rr * (offset + 2.0 * length * t_u / (log_rr * r_w**2 * k_w) + t_u / t_l)
    return front * t_u * (h_u - h_l) / den


def borehole_hf(x: np.ndarray) -> np.ndarray:
    return _borehole(x, 2.0 * np.pi, 1.0)


def borehole_lf(x: np.ndarray) -> np.ndarray:
    """Cheaper variant with a perturbed leading constant and flow offset."""
    return _borehole(x, 5.0, 1.5)


# -- high-dimensional separable pairs -----------------------------------------------


def separable20_hf(x: np.ndarray) -> np.ndarray:
    weights = 1.0 / np.arange(1, 21)
    return np.sin(np.pi * x) @ weights


def separable20_lf(x: np.ndarray) -> np.ndarray:
    return 0.8 * separable20_hf(x) + x.mean(axis=1) - 0.5


def separable30_hf(x: np.ndarray) -> np.ndarray:
    weights = 1.0 / np.arange(1, 31)
    return np.cos(np.pi * x) @ weights


def separable30_lf(x: np.ndarray) -> np.ndarray:
    return 0.9 * separable30_hf(x) + 0.2 * x.mean(axis=1) - 0.1


# -- registry -------------------------------------------------------------------


def _unit_box(d: int) -> np.ndarray:
    return np.tile([0.0, 1.0], (d, 1))


def registry() -> list[BenchmarkPair]:
    """All shipped benchmark pairs, ordered by input dimension.

    Configurations are rebuilt on every call so callers can tweak them
    freely without cross-talk.
    """
    return [
        BenchmarkPair(
            "forrester1d", 1, 1, _unit_box(1), forrester_lf, forrester_hf,
            TrainingConfig(),
        ),
        BenchmarkPair(
            "nonlinear1d", 1, 1, _unit_box(1), nonlinear_lf, nonlinear_hf,
            TrainingConfig(normalizer="standard"),
        ),
        BenchmarkPair(
            "oscillatory1d", 1, 1, _unit_box(1), nonlinear_lf, oscillatory_hf,
            TrainingConfig(normalizer="standard"),
        ),
        BenchmarkPair(
            # the smooth pair's linear-shift surrogate, which misses the jump
            "jump1d", 1, 1, _unit_box(1), forrester_lf, jump_hf,
            TrainingConfig(
                lr_lf=0.02,
                epochs_lf=5000,
                epochs_hf=400,
                hidden_sizes=(32, 32, 32),
                hidden_activations=("sigmoid", "leaky_relu", "inverse_multiquadratic"),
            ),
        ),
        BenchmarkPair(
            "currin2d", 2, 1, _unit_box(2), currin_lf, currin_hf,
            TrainingConfig(normalizer="standard"),
        ),
        BenchmarkPair(
            "hartmann6d", 6, 1, _unit_box(6), hartmann6_lf, hartmann6_hf,
            TrainingConfig(lr_lf=0.02, epochs_lf=5000, normalizer="standard"),
        ),
        BenchmarkPair(
            "borehole8d", 8, 1, _BOREHOLE_BOUNDS.copy(), borehole_lf, borehole_hf,
            TrainingConfig(lr_lf=0.02, epochs_lf=5000, normalizer="minmax"),
        ),
        BenchmarkPair(
            "separable20d", 20, 1, _unit_box(20), separable20_lf, separable20_hf,
            TrainingConfig(epochs_lf=3000, hidden_activations=("leaky_relu",), normalizer="standard"),
        ),
        BenchmarkPair(
            "separable30d", 30, 1, _unit_box(30), separable30_lf, separable30_hf,
            TrainingConfig(epochs_lf=3000, hidden_activations=("sigmoid", "ricker"), normalizer="standard"),
        ),
    ]


def get(name: str) -> BenchmarkPair:
    """Look a pair up by name; raises with the available names on a miss."""
    for pair in registry():
        if pair.name == name:
            return pair
    names = ", ".join(p.name for p in registry())
    raise ValueError(f"unknown benchmark {name!r} (available: {names})")
