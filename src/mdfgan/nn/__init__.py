"""Minimal dense-network engine: activations, backprop, and Adam."""

from .activations import (
    DFT,
    IDENTITY,
    INVERSE_MULTIQUADRATIC,
    KINDS,
    RICKER,
    SIGMOID,
    Activation,
    NonFiniteError,
    apply,
    backward,
    leaky_relu,
    parse_activation,
)
from .network import DenseNetwork, FrozenNetworkError, Tape, param_count
from .optim import AdamState, adam_step

__all__ = [
    "Activation",
    "AdamState",
    "DenseNetwork",
    "DFT",
    "FrozenNetworkError",
    "IDENTITY",
    "INVERSE_MULTIQUADRATIC",
    "KINDS",
    "NonFiniteError",
    "RICKER",
    "SIGMOID",
    "Tape",
    "adam_step",
    "apply",
    "backward",
    "leaky_relu",
    "param_count",
    "parse_activation",
]
