"""Reference values the benchmark checks nvforge's outputs against.

Nothing here imports nvforge: every oracle is written from the physics or
from the published numbers, so a defect in the code under test cannot also
hide in its reference.

- Ramsey and Hahn attenuation use the textbook OU closed forms.
- CPMG, XY4 and XY8 use an O(n) recurrence over the sign-constant cells,
  with ``expm1`` and a series branch so short cells lose no digits.
- Readers parse nvforge's CSV files with plain string splitting.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Decay targets of ``decay_time_grid``: the grid spans -ln(signal) in [0.02, 3].
GRID_DECAY_LO = 0.02
GRID_DECAY_HI = 3.0

#: Published numbers behind acceptance criterion 9, plus the sensitivity pin.
SPOT_FWHM_UM = (15.0, 27.0)
FILM_THICKNESS_UM = 265.0
CHARGE_RATIOS = {"s1": 0.71, "s2": 2.8, "s3": 1.5}
RAMAN_FWHM_CM1 = 1.61
RAMAN_PEAK_CM1 = 1332.54
ETA_DC_T_PER_SQRT_HZ = 100e-9

#: Criterion-1 cross-check tolerance on the RMS MC-analytic difference.
ENGINE_RMS_TOLERANCE = 0.02

#: NV ground-state constants (Hz, Hz/T) and the four <111> axes.
ZFS_HZ = 2.87e9
GAMMA_HZ_PER_T = 2.8024e10
NV_AXES = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)


def _x_minus_one_minus_expm(x: np.ndarray) -> np.ndarray:
    """x - 1 + exp(-x), accurate for every x >= 0."""
    x = np.asarray(x, dtype=float)
    out = x + np.expm1(-x)
    small = x < 1e-2
    if np.any(small):
        xs = x[small]
        # Alternating series sum_{k>=2} (-x)^k / k!, 8 terms is exact to 1e-32.
        term = xs * xs / 2.0
        acc = term.copy()
        for k in range(3, 11):
            term = -term * xs / k
            acc += term
        out[small] = acc
    return out


def chi_ramsey(b_rad_s: float, tau_c_s: float, times_s) -> np.ndarray:
    """chi_R = b^2 tau_c^2 (x - 1 + e^-x), x = t / tau_c."""
    x = np.asarray(times_s, dtype=float) / tau_c_s
    return b_rad_s**2 * tau_c_s**2 * _x_minus_one_minus_expm(x)


def chi_hahn(b_rad_s: float, tau_c_s: float, times_s) -> np.ndarray:
    """chi_H = b^2 tau_c^2 (x - 3 + 4 e^{-x/2} - e^{-x}), in expm1 form."""
    x = np.asarray(times_s, dtype=float) / tau_c_s
    inner = x + 4.0 * np.expm1(-x / 2.0) - np.expm1(-x)
    small = x < 0.1
    if np.any(small):
        # The k < 3 terms cancel exactly: inner = sum_{k>=3} (-x)^k/k! (4/2^k - 1).
        xs = x[small]
        power = -(xs**3) / 6.0
        acc = power * (4.0 / 8.0 - 1.0)
        for k in range(4, 16):
            power = -power * xs / k
            acc += power * (4.0 / 2.0**k - 1.0)
        inner[small] = acc
    return b_rad_s**2 * tau_c_s**2 * inner


def pi_fractions(kind: str, n: int | None = None) -> np.ndarray:
    """Refocusing instants as fractions of the free-evolution window."""
    kind = kind.lower()
    if kind == "ramsey":
        return np.empty(0)
    if kind == "hahn":
        return np.array([0.5])
    count = {"xy4": 4, "xy8": 8}.get(kind, n)
    if kind not in ("cpmg", "xy4", "xy8") or not count or count < 1:
        raise ValueError(f"no pulse pattern for {kind!r} with n={n!r}")
    k = np.arange(1, count + 1)
    return (2 * k - 1) / (2.0 * count)


def chi_cells(b_rad_s: float, tau_c_s: float, fractions, times_s) -> np.ndarray:
    """chi(t) for any pi-pulse pattern, by a running sum over the cells.

    With cell lengths L_k, signs s_k = (-1)^k and a_k = exp(-L_k / tau):
    chi = b^2 tau^2 [sum_k g(L_k/tau) + sum_{j<k} s_j s_k (1-a_j)(1-a_k)
    exp(-gap_jk / tau)], and the inner sum over j obeys
    A_{k+1} = a_k A_k + s_k (1 - a_k).
    """
    times = np.asarray(times_s, dtype=float)
    edges = np.concatenate([[0.0], np.asarray(fractions, dtype=float), [1.0]])
    frac_len = np.diff(edges)
    x = np.outer(times / tau_c_s, frac_len)  # (n_times, n_cells)
    diag = _x_minus_one_minus_expm(x.ravel()).reshape(x.shape).sum(axis=1)
    one_m = -np.expm1(-x)
    alpha = 1.0 - one_m
    acc = np.zeros(times.size)
    cross = np.zeros(times.size)
    sign = 1.0
    for k in range(x.shape[1]):
        cross += sign * one_m[:, k] * acc
        acc = alpha[:, k] * acc + sign * one_m[:, k]
        sign = -sign
    return b_rad_s**2 * tau_c_s**2 * (diag + cross)


def chi(kind: str, n: int | None, b_rad_s: float, tau_c_s: float, times_s) -> np.ndarray:
    """Attenuation exponent for a named sequence; closed forms where they exist."""
    if kind == "ramsey":
        return chi_ramsey(b_rad_s, tau_c_s, times_s)
    if kind == "hahn":
        return chi_hahn(b_rad_s, tau_c_s, times_s)
    return chi_cells(b_rad_s, tau_c_s, pi_fractions(kind, n), times_s)


def t1_factor(times_s, t1_s: float | None, q: float) -> np.ndarray:
    t = np.asarray(times_s, dtype=float)
    if t1_s is None or math.isinf(t1_s):
        return np.ones_like(t)
    return np.exp(-((t / t1_s) ** q))


def coherence(kind, n, b_rad_s, tau_c_s, times_s, t1_s=None, q=1.0) -> np.ndarray:
    """exp(-chi(t)) exp(-(t/T1)^q)."""
    return np.exp(-chi(kind, n, b_rad_s, tau_c_s, times_s)) * t1_factor(times_s, t1_s, q)


def fid_beats(detuning_hz, a_hf_hz, multiplicities, t2_star_s, times_s) -> np.ndarray:
    """exp(-t/T2*) sum_m w_m cos(2 pi (delta + m A) t)."""
    t = np.asarray(times_s, dtype=float)
    beat = sum(w * np.cos(2 * math.pi * (detuning_hz + m * a_hf_hz) * t) for m, w in multiplicities)
    return np.exp(-t / t2_star_s) * beat


def stretched_exp(times_s, a, t2_s, p, c) -> np.ndarray:
    t = np.asarray(times_s, dtype=float)
    return a * np.exp(-((t / t2_s) ** p)) + c


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx -= lx.mean()
    return float((lx * (ly - ly.mean())).sum() / (lx * lx).sum())


def secular_lines(bx_t, by_t, bz_t, zfs_hz=ZFS_HZ, gamma=GAMMA_HZ_PER_T) -> np.ndarray:
    """Sorted secular ODMR centres D +- gamma |B . n| over the four axes."""
    proj = np.abs(NV_AXES @ np.array([bx_t, by_t, bz_t]))
    return np.sort(np.concatenate([zfs_hz - gamma * proj, zfs_hz + gamma * proj]))


def vdp_residual(r_a_ohm: float, r_b_ohm: float, rs_ohm: float) -> float:
    """Van der Pauw equation exp(-pi R_A/R_s) + exp(-pi R_B/R_s) - 1."""
    return math.exp(-math.pi * r_a_ohm / rs_ohm) + math.exp(-math.pi * r_b_ohm / rs_ohm) - 1.0


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a comma-separated file."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    header = [h.strip() for h in lines[0].split(",")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def read_curve(path) -> tuple[np.ndarray, np.ndarray]:
    header, data = read_csv(path)
    if header != ["time_s", "signal"]:
        raise ValueError(f"{Path(path).name}: header {header}")
    return data[:, 0], data[:, 1]


def read_json(path):
    return json.loads(Path(path).read_text())
