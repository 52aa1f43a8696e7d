"""Van-der-Pauw sheet resistance of a film from two four-point resistances, on :mod:`math` alone."""

from __future__ import annotations

import math

from .constants import NumericalFailure

# At or below this R_min/R_max the Van-der-Pauw equation is solved in its log
# form, where exp(-v) at the root would be subnormal or near it.
VDP_LOG_SWITCH = 1e-290
# The Van-der-Pauw Newton solve stops within 39 steps for R_min/R_max >= 1e-16
# and within 667 just above VDP_LOG_SWITCH; the log form stops within 4.
VDP_MAX_STEPS = 1000


def van_der_pauw(r_a_ohm: float, r_b_ohm: float) -> tuple[float, float]:
    """Sheet resistance (ohm/sq) and conductance from two VdP resistances.

    Solves exp(-pi R_A / R_s) + exp(-pi R_B / R_s) = 1.  With r = R_min/R_max
    and v = pi R_max / R_s it reads g(v) = exp(-v) + expm1(-r v) = 0, which
    does not cancel at small r.  g is convex and decreasing with g(0) = 1, so
    Newton steps from v = 0 rise monotonically to the root; they stop once a
    step no longer raises v.  For R_A = R_B = R the root is pi R / ln 2.

    At r <= VDP_LOG_SWITCH, exp(-v) = r v (1 - r v / 2 + ...) is subnormal
    or near it at the root and r itself may be, so the solve takes logs:
    f(v) = v + ln v - (ln R_max - ln R_min) = 0, dropping r v / 2, which is
    far below an ulp of v.  f is concave and increasing, so the first Newton
    step from v = ln R_max - ln R_min lands below the root and the next
    ones rise to it, under the same stop.
    Returns ``(sheet_resistance, sheet_conductance)``.
    """
    if not (r_a_ohm > 0 and r_b_ohm > 0):
        raise ValueError("resistances must be positive")
    if not (math.isfinite(r_a_ohm) and math.isfinite(r_b_ohm)):
        raise NumericalFailure("resistances must be finite")
    r_min, r_max = sorted((r_a_ohm, r_b_ohm))
    r = r_min / r_max
    if r > VDP_LOG_SWITCH:
        def newton(v):
            e = math.exp(-v)
            return v + (e + math.expm1(-r * v)) / (e + r * math.exp(-r * v))
        v = 0.0
    else:
        log_ratio = math.log(r_max) - math.log(r_min)

        def newton(v):
            return v - (v + math.log(v) - log_ratio) * v / (v + 1.0)
        v = newton(log_ratio)
    for _ in range(VDP_MAX_STEPS):
        next_v = newton(v)
        if not next_v > v:
            break
        v = next_v
    else:
        raise NumericalFailure("Van-der-Pauw solve did not converge")
    rs = math.pi * r_max / v
    if math.isinf(rs):  # pi * R_max alone may overflow
        rs = math.pi * (r_max / v)
    if math.isinf(rs) or math.isinf(1.0 / rs):
        raise NumericalFailure("Van-der-Pauw sheet resistance leaves the float range")
    return rs, 1.0 / rs
