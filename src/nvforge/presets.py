"""Pinned, reproducible parameter presets.

The source experiments report coherence times and sensitivities without the
underlying bath or collection parameters, so these presets pin one
documented reconstruction of each configuration.  They are calibration
targets, not derivations.
"""

from __future__ import annotations

import math

from .constants import NOISE_PRESET_NAMES
from .engines import attenuation_exponent
from .noise import NoiseModel
from .sequences import build_sequence

# Hahn-echo 1/e time the "paper-like" bath is calibrated to reproduce.
PAPER_LIKE_HAHN_T2_S = 6.4e-6
PAPER_LIKE_TAU_C_S = 1e-5
PAPER_LIKE_T1_S = 3.14e-3
PAPER_LIKE_T1_Q = 1.32

# Slow-bath preset: correlation time far beyond every pulse spacing, so
# CPMG coherence times follow the n^(2/3) scaling regime.
SLOW_BATH_TAU_C_S = 1e-3
SLOW_BATH_B_RAD_S = 9.8e6


def calibrate_b_for_hahn_t2(
    t2_s: float, tau_c_s: float
) -> float:
    """Coupling strength b such that the Hahn-echo chi(t2) equals 1.

    chi scales as b^2 at fixed tau_c, so a single closed-form evaluation at
    b = 1 suffices: b = 1/sqrt(chi_1).
    """
    seq = build_sequence("hahn", tau_s=t2_s / 2.0)
    chi_unit = attenuation_exponent(seq, NoiseModel(1.0, tau_c_s), t2_s)
    return 1.0 / math.sqrt(chi_unit)


def paper_like_noise() -> NoiseModel:
    """OU bath with tau_c = 10 us and b solved so Hahn 1/e time is 6.4 us.

    Carries the longitudinal channel T1 = 3.14 ms with q = 1.32.

    Note: an OU bath with tau_c above the echo time decays with an effective
    stretching exponent near 3 at the Hahn point, while strongly rewarding
    multipulse decoupling.  A single OU component cannot also reproduce a
    near-exponential Hahn shape; see the README's limitations section.
    """
    b = calibrate_b_for_hahn_t2(PAPER_LIKE_HAHN_T2_S, PAPER_LIKE_TAU_C_S)
    return NoiseModel(b, PAPER_LIKE_TAU_C_S, PAPER_LIKE_T1_S, PAPER_LIKE_T1_Q)


def slow_bath_noise() -> NoiseModel:
    """Deep slow-bath OU preset (b*tau_c >> 1, Hahn T2 ~ 5 us)."""
    return NoiseModel(SLOW_BATH_B_RAD_S, SLOW_BATH_TAU_C_S)


# The names are in constants, where the CLI reads them without importing numpy.
NOISE_PRESETS = dict(zip(NOISE_PRESET_NAMES, (paper_like_noise, slow_bath_noise)))


def noise_preset(name: str) -> NoiseModel:
    try:
        factory = NOISE_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown noise preset {name!r}; available: {sorted(NOISE_PRESETS)}"
        ) from None
    return factory()
