"""Dephasing-bath description: Ornstein-Uhlenbeck noise plus a T1 channel.

The transverse environment is modeled as a stationary Gaussian
Ornstein-Uhlenbeck (OU) frequency-noise process with standard deviation
``b_rad_s`` (rad/s) and exponential autocorrelation time ``tau_c_s``.
Longitudinal relaxation multiplies every coherence signal by
exp(-(t/T1)^q); ``t1_s = inf`` disables the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    """OU bath parameters and optional longitudinal channel."""

    b_rad_s: float
    tau_c_s: float
    t1_s: float = math.inf
    t1_exponent_q: float = 1.0

    def __post_init__(self) -> None:
        if self.b_rad_s < 0:
            raise ValueError("b_rad_s must be >= 0")
        if not self.tau_c_s > 0:
            raise ValueError("tau_c_s must be positive")
        if not self.t1_s > 0:
            raise ValueError("t1_s must be positive")
        if not self.t1_exponent_q > 0:
            raise ValueError("t1_exponent_q must be positive")

    def longitudinal_factor(self, times_s) -> np.ndarray:
        """exp(-(t/T1)^q) evaluated elementwise; 1 everywhere for T1 = inf."""
        t = np.asarray(times_s, dtype=float)
        if math.isinf(self.t1_s):
            return np.ones_like(t)
        return np.exp(-((t / self.t1_s) ** self.t1_exponent_q))

    def as_dict(self) -> dict:
        return {
            "b_rad_s": self.b_rad_s,
            "tau_c_s": self.tau_c_s,
            "t1_s": None if math.isinf(self.t1_s) else self.t1_s,
            "t1_exponent_q": self.t1_exponent_q,
        }


def ou_cell_coefficients(b_rad_s: float, tau_c_s: float, length_s: float):
    """Exact joint update coefficients for one sign-constant cell.

    For a stationary OU process x with variance b^2 and correlation time
    tau_c, conditioned on the cell-entry value x0, the pair
    (x(L), I = integral of x over the cell) is jointly Gaussian:

        x(L) = alpha * x0 + L11 * z1
        I    = m_i  * x0 + L21 * z1 + L22 * z2

    with alpha = exp(-L/tau_c), m_i = tau_c * (1 - alpha), z1, z2 iid
    standard normals, and (L11, L21, L22) the Cholesky factors of the
    conditional covariance.  Returns (alpha, m_i, L11, L21, L22).
    """
    tau = tau_c_s
    alpha = math.exp(-length_s / tau)
    one_m = -math.expm1(-length_s / tau)
    b2 = b_rad_s * b_rad_s
    var_x = b2 * one_m * (1.0 + alpha)
    cov_xi = b2 * tau * one_m * one_m
    var_i = b2 * (2.0 * tau * length_s - 2.0 * tau * tau * one_m - tau * tau * one_m * one_m)
    l11 = math.sqrt(max(var_x, 0.0))
    if l11 > 0.0:
        l21 = cov_xi / l11
    else:
        l21 = 0.0
    l22 = math.sqrt(max(var_i - l21 * l21, 0.0))
    return alpha, tau * one_m, l11, l21, l22
