"""Coherence-decay engines for pulse sequences under an OU dephasing bath.

Two independent routes compute the same quantity; both take the
sign-constant cells of the free-evolution window from
:meth:`nvforge.sequences.PulseSequence.cell_lengths`:

- :func:`simulate_analytic` evaluates the Gaussian-noise attenuation
  exponent chi(t) = 1/2 * double-integral of s(t1) s(t2) b^2
  exp(-|t1-t2|/tau_c) in closed form (:func:`attenuation_exponent`, one
  running sum over the cells for all time points at once), and returns
  exp(-chi) exp(-(t/T1)^q).

- :func:`simulate_mc` never evaluates chi.  It averages cos(phase) over
  stochastic trajectories, where each trajectory accumulates phase =
  integral of s(t') dw(t') with the OU frequency noise dw.  Both the
  cell-exit noise value and the integral of the noise over each cell are
  drawn from their exact joint Gaussian law (see
  :func:`nvforge.noise.ou_cell_coefficients`), so the estimator is exact
  in distribution for any cell size; the only discrepancy against the
  analytic engine is Monte-Carlo statistics.

Monte-Carlo runs are bit-reproducible for a fixed seed regardless of
evaluation order: trajectories are partitioned into fixed-size blocks and
each block draws from its own counter-based Philox stream keyed by
(seed, block index).  Block partial sums are combined in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import fitkit
from .curves import DecayCurve
from .levmar import NumericalFailure
from .noise import NoiseModel, ou_cell_coefficients
from .sequences import PulseSequence, build_sequence

MC_BLOCK_SIZE = 16384


def attenuation_exponent(seq: PulseSequence, noise: NoiseModel, times_s):
    """Closed-form chi(t) for OU noise under the sequence's pi-pulse pattern.

    With cell lengths L_k, signs s_k = (-1)^k, x_k = L_k/tau_c and
    a_k = exp(-x_k), the exact rectangle integrals of exp(-|t1-t2|/tau_c)
    give chi = b^2 tau_c^2 [sum_k (x_k - (1-a_k)) + sum_k s_k (1-a_k) A_k],
    where A_0 = 0 and A_{k+1} = a_k A_k + s_k (1-a_k) sums the cross terms
    of all earlier cells: one O(n_cells) pass, vectorized over ``times_s``
    (a scalar or an array; the result has its shape).
    """
    x = seq.cell_lengths(times_s) / noise.tau_c_s
    alpha = np.exp(-x)
    one_m = -np.expm1(-x)
    acc = np.zeros(x.shape[:-1])
    total = np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        sign = 1.0 if k % 2 == 0 else -1.0
        total += x[..., k] - one_m[..., k] + sign * one_m[..., k] * acc
        acc = alpha[..., k] * acc + sign * one_m[..., k]
    chi = (noise.b_rad_s * noise.tau_c_s) ** 2 * total
    if not np.all(np.isfinite(chi)):
        raise NumericalFailure("attenuation exponent is not finite")
    return np.maximum(chi, 0.0)[()]


def simulate_analytic(seq: PulseSequence, noise: NoiseModel, times_s) -> DecayCurve:
    """Deterministic coherence curve exp(-chi(t)) * exp(-(t/T1)^q)."""
    times = np.asarray(times_s, dtype=float)
    chi = attenuation_exponent(seq, noise, times)
    signal = np.exp(-chi) * noise.longitudinal_factor(times)
    meta = {"sequence": seq.name, "engine": "analytic", "noise": noise.as_dict()}
    return DecayCurve(times_s=times, signal=signal, meta=meta)


def _mc_block_sums(
    seed: int,
    block_index: int,
    block_n: int,
    cell_coeffs: list[list[tuple[float, float, float, float, float, int]]],
    b_rad_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum and sum-of-squares of cos(phase) for one trajectory block.

    The draw order (per time point, per cell: one initial value, then one
    (z1, z2) pair per cell) is fixed, and the stream is keyed by
    (seed, block_index) only, so blocks can be evaluated in any order.
    """
    key = np.array([seed % 2**64, block_index], dtype=np.uint64)
    rng = Generator(Philox(key=key))
    n_times = len(cell_coeffs)
    sums = np.empty(n_times)
    sums_sq = np.empty(n_times)
    for it in range(n_times):
        x = b_rad_s * rng.standard_normal(block_n)
        phase = np.zeros(block_n)
        for alpha, m_i, l11, l21, l22, sign in cell_coeffs[it]:
            z = rng.standard_normal((2, block_n))
            phase += sign * (m_i * x + l21 * z[0] + l22 * z[1])
            x = alpha * x + l11 * z[0]
        c = np.cos(phase)
        sums[it] = c.sum()
        sums_sq[it] = (c * c).sum()
    return sums, sums_sq


def simulate_mc(
    seq: PulseSequence,
    noise: NoiseModel,
    times_s,
    n_traj: int,
    seed: int,
    _block_order=None,
) -> DecayCurve:
    """Monte-Carlo coherence curve <cos(phase)> * exp(-(t/T1)^q).

    Bit-identical output for identical (seed, n_traj, times).  Per-point
    standard errors of the Monte-Carlo mean are stored in
    ``meta["mc_stderr"]``.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    times = np.asarray(times_s, dtype=float)

    cell_coeffs = [
        [
            (*ou_cell_coefficients(noise.b_rad_s, noise.tau_c_s, length), (-1) ** k)
            for k, length in enumerate(lengths)
        ]
        for lengths in seq.cell_lengths(times).tolist()
    ]

    n_blocks = (n_traj + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE
    sums = np.zeros((n_blocks, times.size))
    sums_sq = np.zeros((n_blocks, times.size))
    order = range(n_blocks) if _block_order is None else _block_order
    for ib in order:
        block_n = min(MC_BLOCK_SIZE, n_traj - ib * MC_BLOCK_SIZE)
        sums[ib], sums_sq[ib] = _mc_block_sums(
            seed, ib, block_n, cell_coeffs, noise.b_rad_s
        )

    mean = sums.sum(axis=0) / n_traj
    var = np.clip(sums_sq.sum(axis=0) / n_traj - mean**2, 0.0, None)
    t1_factor = noise.longitudinal_factor(times)
    signal = mean * t1_factor
    stderr = np.sqrt(var / n_traj) * t1_factor
    meta = {
        "sequence": seq.name,
        "engine": "mc",
        "seed": int(seed),
        "n_traj": int(n_traj),
        "noise": noise.as_dict(),
        "mc_stderr": stderr.tolist(),
    }
    return DecayCurve(times_s=times, signal=signal, meta=meta)


@dataclass(frozen=True)
class HyperfineTriplet:
    """Hyperfine beat structure of the free-induction signal.

    ``multiplicities`` maps nuclear spin projections m to weights; lines sit
    at ``detuning + m * a_parallel``.  The default is the spin-1 equal-weight
    triplet; use :meth:`doublet` for a spin-1/2 host (two lines split by the
    full coupling, first beat node at t = 1/(2A)).
    """

    detuning_hz: float
    a_parallel_hz: float
    multiplicities: tuple[tuple[float, float], ...] = fitkit.TRIPLET_MULTIPLICITIES

    def __post_init__(self) -> None:
        total = sum(w for _, w in self.multiplicities)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("multiplicity weights must sum to 1")

    @classmethod
    def doublet(cls, detuning_hz: float, a_parallel_hz: float) -> "HyperfineTriplet":
        return cls(detuning_hz, a_parallel_hz, fitkit.DOUBLET_MULTIPLICITIES)

    def line_frequencies(self) -> list[tuple[float, float]]:
        return [
            (self.detuning_hz + m * self.a_parallel_hz, w)
            for m, w in self.multiplicities
        ]


def simulate_fid_beats(triplet: HyperfineTriplet, t2_star_s: float, times_s) -> DecayCurve:
    """Free-induction decay with hyperfine beats.

    signal(t) = exp(-t/T2*) * sum_m w_m cos(2 pi (delta + m*A) t)
    """
    if not t2_star_s > 0:
        raise ValueError("t2_star_s must be positive")
    times = np.asarray(times_s, dtype=float)
    beat = np.zeros_like(times)
    for f, w in triplet.line_frequencies():
        beat += w * np.cos(2 * math.pi * f * times)
    signal = np.exp(-times / t2_star_s) * beat
    meta = {
        "sequence": "ramsey_fid",
        "engine": "fid_beats",
        "detuning_hz": triplet.detuning_hz,
        "a_parallel_hz": triplet.a_parallel_hz,
        "t2_star_s": t2_star_s,
    }
    return DecayCurve(times_s=times, signal=signal, meta=meta)


def decay_time_grid(
    seq: PulseSequence,
    noise: NoiseModel,
    n_points: int = 24,
    decay_lo: float = 0.02,
    decay_hi: float = 3.0,
) -> np.ndarray:
    """Log-spaced total-time grid covering -ln(signal) in [decay_lo, decay_hi].

    The total decay exponent chi(t) + (t/T1)^q is monotone in t, so both
    endpoints are found together by one bisection on the pair of targets.
    """

    def total_exponent(t):
        extra = 0.0
        if not math.isinf(noise.t1_s):
            extra = (t / noise.t1_s) ** noise.t1_exponent_q
        return attenuation_exponent(seq, noise, t) + extra

    probe = noise.tau_c_s
    for _ in range(200):
        if total_exponent(probe) >= decay_hi:
            break
        probe *= 2.0
    else:
        raise ValueError("noise model produces no appreciable decay")

    targets = np.array([decay_lo, decay_hi])
    lo, hi = np.zeros(2), np.full(2, probe)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = total_exponent(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t_lo, t_hi = 0.5 * (lo + hi)
    return np.geomspace(max(t_lo, 1e-15), t_hi, n_points)


def t2_vs_n(
    noise: NoiseModel,
    n_list,
    tau_s: float = 1e-6,
    n_points: int = 40,
) -> list[tuple[int, float]]:
    """Coherence time versus number of CPMG pi pulses.

    For each n, simulates the CPMG(n) decay on a log-spaced grid with the
    analytic engine and fits a stretched exponential (offset pinned to 0).
    Fit failures are re-raised with the offending n attached.
    """
    if not n_list:
        raise ValueError("n_list must be non-empty")
    out = []
    model = fitkit.FitModel.stretched_exp()
    for n in n_list:
        seq = build_sequence("cpmg", tau_s, n=int(n))
        times = decay_time_grid(seq, noise, n_points=n_points)
        curve = simulate_analytic(seq, noise, times)
        try:
            result = fitkit.fit(curve, model, fix={"c": 0.0})
        except fitkit.FitError as exc:
            raise fitkit.FitError(f"T2 fit failed for n={n}: {exc}") from exc
        out.append((int(n), result.params["t2_s"]))
    return out
