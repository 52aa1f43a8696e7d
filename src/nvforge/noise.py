"""Dephasing-bath description: Ornstein-Uhlenbeck noise plus a T1 channel.

The transverse environment is modeled as a stationary Gaussian
Ornstein-Uhlenbeck (OU) frequency-noise process with standard deviation
``b_rad_s`` (rad/s) and exponential autocorrelation time ``tau_c_s``.
Longitudinal relaxation multiplies every coherence signal by
exp(-(t/T1)^q); ``t1_s = inf`` disables the channel.  The whole decay law
exp(-chi) exp(-(t/T1)^q), for a dephasing exponent chi, has one owner:
:meth:`NoiseModel.decay_signal`, with its exponent :meth:`NoiseModel.decay_exponent`.
Draws of the noise, in the Monte-Carlo engine and the fixtures, come from :func:`seeded_rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import T1_EXPONENT_Q, check_positive


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by (seed mod 2^64, stream); loads ``numpy.random`` when first called."""
    from numpy.random import Generator, Philox
    return Generator(Philox(key=np.array([seed % 2**64, stream], dtype=np.uint64)))


@dataclass(frozen=True)
class NoiseModel:
    """OU bath parameters and optional longitudinal channel."""

    b_rad_s: float
    tau_c_s: float
    t1_s: float = math.inf
    t1_exponent_q: float = T1_EXPONENT_Q

    def __post_init__(self) -> None:
        if not self.b_rad_s >= 0:
            raise ValueError("b_rad_s must be >= 0")
        check_positive(tau_c_s=self.tau_c_s, t1_s=self.t1_s, t1_exponent_q=self.t1_exponent_q)

    def longitudinal_exponent(self, times_s) -> np.ndarray:
        """(t/T1)^q evaluated elementwise; 0 for T1 = inf, inf without a warning on overflow."""
        t = np.asarray(times_s, dtype=float)
        if math.isinf(self.t1_s):
            return np.zeros_like(t)
        with np.errstate(over="ignore"):
            return (t / self.t1_s) ** self.t1_exponent_q

    def decay_exponent(self, chi, times_s) -> np.ndarray:
        """chi + (t/T1)^q: the total decay exponent, -ln of :meth:`decay_signal`, for a dephasing exponent chi."""
        return chi + self.longitudinal_exponent(times_s)

    def decay_signal(self, chi, times_s) -> np.ndarray:
        """exp(-chi) * exp(-(t/T1)^q): the coherence left after dephasing chi and the T1 channel."""
        return np.exp(-chi) * np.exp(-self.longitudinal_exponent(times_s))

    def as_dict(self) -> dict:
        return {
            "b_rad_s": self.b_rad_s,
            "tau_c_s": self.tau_c_s,
            "t1_s": None if math.isinf(self.t1_s) else self.t1_s,
            "t1_exponent_q": self.t1_exponent_q,
        }


#: Below this L/tau_c, the conditional variance of a cell's noise integral
#: comes from its Taylor series: the closed form's two terms cancel there.
SHORT_CELL_SWITCH = 0.5
#: Coefficients of x^3, x^5, ..., x^21 in 2 (x - 2 tanh(x/2)), from the tanh
#: series; the first term left out is ~1e-16 of the sum at the switch.
SHORT_CELL_SERIES = (
    1 / 6,
    -1 / 60,
    17 / 10080,
    -31 / 181440,
    691 / 39916800,
    -5461 / 3113510400,
    929569 / 5230697472000,
    -3202291 / 177843714048000,
    221930581 / 121645100408832000,
    -4722116521 / 25545471085854720000,
)


def conditional_integral_variance(x: float) -> float:
    """Var(I | x0, x(L)) / (b^2 tau_c^2) for a cell of x = L/tau_c, i.e. 2 (x - 2 tanh(x/2)).

    Below SHORT_CELL_SWITCH the series x^3/6 - x^5/60 + 17 x^7/10080 - ...
    is summed by Horner's rule, so the result keeps full relative precision
    down to the shortest cells.
    """
    if x >= SHORT_CELL_SWITCH:
        return 2.0 * (x - 2.0 * math.tanh(0.5 * x))
    y = x * x
    acc = 0.0
    for c in reversed(SHORT_CELL_SERIES):
        acc = c + y * acc
    return x * y * acc


def ou_cell_coefficients(b_rad_s: float, tau_c_s: float, length_s: float):
    """Exact joint update coefficients for one sign-constant cell.

    For a stationary OU process x with variance b^2 and correlation time
    tau_c, conditioned on the cell-entry value x0, the pair
    (x(L), I = integral of x over the cell) is jointly Gaussian:

        x(L) = alpha * x0 + L11 * z1
        I    = m_i  * x0 + L21 * z1 + L22 * z2

    with alpha = exp(-L/tau_c), m_i = tau_c * (1 - alpha), z1, z2 iid
    standard normals, and (L11, L21, L22) the Cholesky factors of the
    conditional covariance; L22^2 = Var(I) - L21^2 is taken from
    :func:`conditional_integral_variance`.  Returns (alpha, m_i, L11, L21, L22);
    L22 is 0 for b = 0, also where L/tau_c overflows.
    """
    tau = tau_c_s
    alpha = math.exp(-length_s / tau)
    one_m = -math.expm1(-length_s / tau)
    b2 = b_rad_s * b_rad_s
    var_x = b2 * one_m * (1.0 + alpha)
    cov_xi = b2 * tau * one_m * one_m
    l11 = math.sqrt(max(var_x, 0.0))
    if l11 > 0.0:
        l21 = cov_xi / l11
    else:
        l21 = 0.0
    l22 = b_rad_s * tau * math.sqrt(conditional_integral_variance(length_s / tau)) if b_rad_s else 0.0
    return alpha, tau * one_m, l11, l21, l22
