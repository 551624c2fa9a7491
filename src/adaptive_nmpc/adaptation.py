"""Closed-form state-weight updates from prediction errors.

After each prediction step the per-dimension error products

    v_k = (dx_k + alpha * l_k) (.) dx_k

are accumulated over the sub-horizon and mapped to new diagonal state
weights. The plain linear form ``q = sum(v) / (2*lam + gamma)`` is the
exact minimizer of ``lam q'q - sum(v)'q`` (the controller clips it at
zero so the weight matrix stays positive semidefinite); the exponential
form ``q = exp(sum(v) / (2*lam + gamma))`` is the variant used by the
benchmark defaults (neutral all-ones weights under perfect tracking).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = ("linear", "exponential")


@dataclass(frozen=True)
class AdaptConfig:
    """Parameters of the weight update.

    ``exp_clamp`` bounds the exponent of the exponential variant. The
    default keeps the largest weight boost near exp(2) ~ 7.4: large enough
    for every benchmark gain observed, small enough that a corrupted
    measurement cannot drive the controller into relay-like saturation or
    push the QP weight ratio beyond what float64 can certify.
    """

    lam: float = 1.0
    gamma: float = 0.0
    sub_horizon: int = 8
    variant: str = "exponential"
    exp_clamp: float = 2.0

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.gamma >= 0.0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.sub_horizon < 1:
            raise ValueError(f"sub_horizon must be >= 1, got {self.sub_horizon}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def denom(self) -> float:
        return 2.0 * self.lam + self.gamma


def compute_v(dx_k: np.ndarray, l_k_state: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise error product (dx_k + alpha * l_k) (.) dx_k."""
    dx_k = np.asarray(dx_k, dtype=float)
    l_k_state = np.asarray(l_k_state, dtype=float)
    if dx_k.shape != l_k_state.shape:
        raise ValueError(f"shape mismatch: {dx_k.shape} vs {l_k_state.shape}")
    return (dx_k + alpha * l_k_state) * dx_k


def update_weights_linear(v_sum, cfg: AdaptConfig) -> np.ndarray:
    """Closed-form minimizer of the weight objective."""
    return np.asarray(v_sum, dtype=float) / cfg.denom


def update_weights_exp(v_sum, cfg: AdaptConfig) -> np.ndarray:
    """Exponential weight map with clamped argument; always positive."""
    arg = np.minimum(np.asarray(v_sum, dtype=float) / cfg.denom, cfg.exp_clamp)
    return np.exp(arg)


def update_weights(v_sum, cfg: AdaptConfig) -> np.ndarray:
    """Dispatch on the configured variant."""
    if cfg.variant == "exponential":
        return update_weights_exp(v_sum, cfg)
    return update_weights_linear(v_sum, cfg)
