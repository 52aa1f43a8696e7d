"""Coherence-decay engines for pulse sequences under an OU dephasing bath.

Two independent routes compute the same quantity for a sequence of n
equally spaced pi pulses (:class:`nvforge.sequences.PulseSequence`):

- :func:`simulate_analytic` evaluates the Gaussian-noise attenuation
  exponent chi(t) = 1/2 * double-integral of s(t1) s(t2) b^2
  exp(-|t1-t2|/tau_c) with :func:`attenuation_exponent`, the CPMG filter
  function in closed form (Cywinski et al., PRB 77, 174509 (2008)): O(1)
  per time point for any n, exact to a few ulps.  It returns
  exp(-chi) exp(-(t/T1)^q).

- :func:`simulate_mc` never evaluates chi.  It averages cos(phase) over
  stochastic trajectories, where each trajectory accumulates phase =
  integral of s(t') dw(t') with the OU frequency noise dw, cell by cell
  over the sign-constant cells of
  :meth:`~nvforge.sequences.PulseSequence.cell_lengths`, which also
  rejects negative and NaN times.  Cells of equal length share one
  evaluation.  Both the cell-exit noise value and the integral of the
  noise over each cell are drawn from their exact joint Gaussian law (see
  :func:`nvforge.noise.ou_cell_coefficients`), so the estimator is exact
  in distribution for any cell size; the only discrepancy against the
  analytic engine is Monte-Carlo statistics.  The phase is linear in the
  normal draws (one initial noise value, then two per cell), so a backward
  sweep over the cells turns their coefficients into one weight per draw
  and time point, and each trajectory's phase is the weighted sum of its
  draws.  The weights are never squared and summed: that sum is 2 chi.

Monte-Carlo runs are bit-reproducible for a fixed seed regardless of
evaluation order: trajectories are partitioned into fixed-size blocks and
each block draws from its own counter-based Philox stream keyed by
(seed, block index).  Block partial sums are combined in index order.
Every time point has the same number of cells, so each draw drives all
time points at once: the points are correlated, each stays exact in
distribution, and a point's value does not depend on the other points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import fitkit
from .curves import DecayCurve
from .levmar import NumericalFailure
from .noise import NoiseModel, ou_cell_coefficients
from .sequences import PulseSequence, build_sequence, check_times

MC_BLOCK_SIZE = 16384
#: Trajectories per chunk of a block; a chunk's draws drive all time points at once.
MC_CHUNK_SIZE = 2048
#: Layout of the MC draws, recorded in the sidecar.  It changes only when the
#: draws do, not when the arithmetic on them changes the MC bytes by ulps.
MC_STREAM = 2
#: numpy ufunc buffer, in elements, while the chunks run.  At numpy's default
#: of 8192, broadcasting a weight column over a row of draws narrower than
#: ~2800 takes numpy's buffered loop (1.0-1.6 ns per element on a 2048 row);
#: a buffer no wider than the row runs it at 0.25-0.4 ns.  16 is the smallest
#: buffer numpy accepts, so it is no wider than any chunk of 16 or more
#: trajectories.  Elementwise ufuncs and unbuffered sums give the same bytes
#: under any buffer.
MC_UFUNC_BUFSIZE = 16

#: Decay window of :func:`decay_time_grid`, in -ln(signal).
GRID_DECAY_LO = 0.02
GRID_DECAY_HI = 3.0
#: Doublings of tau_c searched for an upper bracket, and bisection steps.
GRID_MAX_DOUBLINGS = 200
GRID_BISECTION_STEPS = 80


def seeded_rng(seed: int, stream: int) -> Generator:
    """Counter-based Philox stream keyed by (seed mod 2^64, stream)."""
    return Generator(Philox(key=np.array([seed % 2**64, stream], dtype=np.uint64)))


#: chi in units of b^2 tau_c^2, with h = t/(2 n tau_c) the half-cell at either
#: end of the window, x = 2h each inner cell, a = e^-x and g = (-a)^(n-1):
#:     (n - 1) u(x) + E(h) + e^-h (1 - e^-h)^3 (1 + e^-h - g e^-h (1 - e^-h)) / (1 + a)^2
#: with u(x) = x - 2 tanh(x/2) and E(h) = 2 (h - (1 - e^-h)) - (1 - e^-h) tanh(h).
#: Below CHI_SERIES_SWITCH, (n - 1) u + E cancels and is summed from its
#: Taylor series in h instead; every factor of the last term is >= 0, so it
#: never cancels.  The switch is 3/8 rather than lower because the closed
#: form loses ~3/h^2 ulps of tanh(h) to cancellation just above it.
CHI_SERIES_SWITCH = 0.375
#: Coefficients of h^3, h^5, ..., h^29 in u(2h) = 2 (h - tanh h), from the tanh series.
CHI_U_SERIES = (
    0.6666666666666666, -0.26666666666666666, 0.10793650793650794, -0.043738977072310406,
    0.017726471059804395, -0.007184256073144962, 0.0029116687741026367, -0.001180054881891172,
    0.00047825822848710496, -0.00019383075913858902, 7.855664776663367e-05, -3.183781013865793e-05,
    1.2903378431310861e-05, -5.229542302581509e-06,
)
#: Coefficients of h^3, h^4, ..., h^30 in E(h).  In either series the first
#: term left out is below 1e-17 of the sum at the switch.
CHI_E_SERIES = (
    0.16666666666666666, 0.25, -0.14166666666666666, -0.08333333333333333,
    0.05376984126984127, 0.034375, -0.0218722442680776, -0.013921957671957672,
    0.008863210477793811, 0.005642498897707231, -0.0035921281971629192, -0.0022868190836940836,
    0.001455834386286602, 0.0009268129274252167, -0.0005900274409483974, -0.0003756231338524383,
    0.00023912911424354427, 0.00015223432221797702, -9.691537956929452e-05, -6.169824687770052e-05,
    3.927832388331683e-05, 2.500535760945925e-05, -1.5918905069328964e-05, -1.0134289721572027e-05,
    6.451689215655431e-06, 4.1072729198567e-06, -2.6147711512907546e-06, -1.664615015128028e-06,
)
#: Ramsey (n = 0) is X + expm1(-X) with X = t/tau_c, summed from its series
#: below RAMSEY_SERIES_SWITCH.
RAMSEY_SERIES_SWITCH = 0.5
#: Coefficients (-1)^k / k! of X^2, X^3, ..., X^15 in X + expm1(-X).
RAMSEY_SERIES = (
    0.5, -0.16666666666666666, 0.041666666666666664, -0.008333333333333333,
    0.001388888888888889, -0.0001984126984126984, 2.48015873015873e-05, -2.7557319223985893e-06,
    2.755731922398589e-07, -2.505210838544172e-08, 2.08767569878681e-09, -1.6059043836821613e-10,
    1.1470745597729725e-11, -7.647163731819816e-13,
)


#: The two series highest power first, h^30 down to h^3, u at the odd powers
#: and 0 elsewhere: (n - 1) u(2h) + E(h) has the coefficients (n - 1) u + E.
_CHI_E = np.array(CHI_E_SERIES[::-1])
_CHI_U = np.zeros(_CHI_E.size)
_CHI_U[::-2] = CHI_U_SERIES


def _series_below(x, switch: float, coeffs, power: int, closed):
    """``closed`` where x >= switch; below it, x^power times the polynomial ``coeffs``.

    The polynomial (highest power first) is summed by Horner's rule on
    min(x, switch), elementwise like the rest of the kernel.
    """
    y = np.minimum(x, switch)
    acc = np.full(np.shape(y), coeffs[0])
    for c in coeffs[1:]:
        acc *= y
        acc += c
    for _ in range(power):
        acc *= y
    return np.where(x < switch, acc, closed)


def _chi(n, noise: NoiseModel, times_s) -> np.ndarray:
    """Unchecked chi(t) for n pi pulses as an array: inf or nan where it overflows, with no warning.

    ``n`` is a pulse count, or a 1-D array of counts >= 1 broadcast along
    the last axis of ``times_s``, one per column; a scalar is the 0-d case,
    Ramsey (n = 0) the one branch.  Steps are elementwise on each column's
    own coefficients (n - 1) u + E, so a point's value does not depend on
    the other points or columns; :func:`decay_time_grid` relies on it.
    Without coupling (b = 0) chi is 0 everywhere, also where t/tau_c overflows.
    """
    if noise.b_rad_s == 0:
        return np.zeros(np.broadcast_shapes(np.shape(times_s), np.shape(n)))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            scale = (noise.b_rad_s * noise.tau_c_s) ** 2
        except OverflowError:  # b*tau_c beyond ~1.3e154 on Python floats: chi(t) > 0 is inf
            scale = math.inf
        if np.ndim(n) == 0 and n == 0:
            x = np.divide(times_s, noise.tau_c_s)
            closed = x + np.expm1(-x)
            return scale * _series_below(x, RAMSEY_SERIES_SWITCH, RAMSEY_SERIES[::-1], 2, closed)
        sign = n % 2 * 2.0 - 1.0
        series = (np.multiply.outer(n - 1, _CHI_U) + _CHI_E).T  # (28,) or (28, columns)
        h = np.divide(times_s, 2 * n * noise.tau_c_s)
        one_m = -np.expm1(-h)
        e_h = 1.0 - one_m
        tanh = np.tanh(h)
        a = e_h * e_h
        g = sign * np.exp((2 - 2 * n) * h)
        closed = (2 * n - 2) * (h - tanh) + 2.0 * (h - one_m) - one_m * tanh
        p = e_h * one_m
        tail = p * one_m * one_m * (1.0 + e_h - g * p) / ((1.0 + a) * (1.0 + a))
        return scale * (_series_below(h, CHI_SERIES_SWITCH, series, 3, closed) + tail)


def attenuation_exponent(seq: PulseSequence, noise: NoiseModel, times_s):
    """Closed-form chi(t) for OU noise under the sequence's pi-pulse pattern.

    The cells between the n pulses are two half-cells h = t/(2 n tau_c)
    and n - 1 cells 2h; summing the cross terms of all cell pairs as a
    geometric series gives the closed form of :data:`CHI_SERIES_SWITCH`,
    evaluated in O(1) per time point for any n; against a 50-digit
    evaluation it is within 2.6e-15 relative for t/tau_c in [1e-12, 1e3].
    ``times_s`` is a scalar or an array and the result has its shape.
    Raises ``ValueError`` for a negative time and :class:`NumericalFailure`
    if any chi overflows.
    """
    check_times(times_s)
    chi = _chi(seq.n_pi, noise, times_s)
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


def _mc_chunk_sums(rng: Generator, chunk_n: int, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum and sum-of-squares of cos(phase) at every time point over chunk_n trajectories.

    The phase is the sum over the chunk's draws of ``weights[d]``, a column
    of shape (n_times, 1), times row d of one ``standard_normal((rows,
    chunk_n))`` call, drawn one row at a time into one buffer, so the
    working set stays at (n_times, chunk_n) for any number of cells.  Each
    draw drives all time points at once by broadcasting, so a time point's
    sums depend only on its own column.
    """
    phase = np.zeros((weights.shape[1], chunk_n))
    term = np.empty_like(phase)
    z = np.empty(chunk_n)
    for w in weights:
        phase += np.multiply(w, rng.standard_normal(out=z), out=term)
    cos = np.cos(phase, out=phase)
    return cos.sum(axis=1), np.square(cos, out=term).sum(axis=1)


def simulate_mc(
    seq: PulseSequence,
    noise: NoiseModel,
    times_s,
    n_traj: int,
    seed: int,
    _block_order=None,
) -> DecayCurve:
    """Monte-Carlo coherence curve <cos(phase)> * exp(-(t/T1)^q).

    Bit-identical output for identical (seed, n_traj, times), and each
    point's value does not depend on the other points in ``times``.  All
    points share their normal draws, so their errors are correlated.
    Per-point standard errors of the Monte-Carlo mean are stored in
    ``meta["mc_stderr"]``.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    times = np.asarray(times_s, dtype=float)
    # Equal cells of the unit window give equal cell lengths bit for bit at
    # every time, so each distinct cell is evaluated once.
    _, first, unit_index = np.unique(seq.cell_lengths(1.0), return_index=True, return_inverse=True)
    lengths = seq.cell_lengths(times)[..., first]
    # With x0 = b z0, each cell adds m_i x + l21 z1 + l22 z2 to the phase and
    # moves x to alpha x + l11 z1.  Sweeping the cells backward, with g the
    # weight of x at a cell's entry, gives every draw its weight.  An overflow
    # (b * b does from b ~ 1.3e154) is refused before the first draw.
    n_cells = unit_index.size
    weights = np.empty((2 * n_cells + 1, times.size, 1))
    g = np.zeros(times.size)
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.array(
            [
                ou_cell_coefficients(noise.b_rad_s, noise.tau_c_s, length)
                for length in lengths.T.ravel().tolist()
            ]
        ).reshape(first.size, times.size, 5)[unit_index]
        cells[1::2, :, [1, 3, 4]] *= -1.0  # odd cells carry the sign -1
        for k in range(n_cells - 1, -1, -1):
            alpha, m_i, l11, l21, l22 = cells[k].T
            weights[2 * k + 1, :, 0] = l21 + l11 * g
            weights[2 * k + 2, :, 0] = l22
            g = m_i + alpha * g
        weights[0, :, 0] = noise.b_rad_s * g
    if not (np.isfinite(cells).all() and np.isfinite(weights).all()):
        raise NumericalFailure("Monte-Carlo cell coefficients are not finite")

    # Block ib draws from its own stream, keyed by (seed, ib) only, so blocks
    # can be evaluated in any order.  It is walked in chunks of MC_CHUNK_SIZE
    # trajectories, which bounds the working arrays at (n_times, MC_CHUNK_SIZE).
    n_blocks = (n_traj + MC_BLOCK_SIZE - 1) // MC_BLOCK_SIZE
    sums = np.zeros((n_blocks, 2, times.size))  # sum and sum of squares of cos(phase)
    old_bufsize = np.setbufsize(MC_UFUNC_BUFSIZE)
    try:
        for ib in range(n_blocks) if _block_order is None else _block_order:
            rng = seeded_rng(seed, ib)
            block_n = min(MC_BLOCK_SIZE, n_traj - ib * MC_BLOCK_SIZE)
            for start in range(0, block_n, MC_CHUNK_SIZE):
                chunk_n = min(MC_CHUNK_SIZE, block_n - start)
                sums[ib] += _mc_chunk_sums(rng, chunk_n, weights)
    finally:
        np.setbufsize(old_bufsize)

    # Block sums are added in index order, one block at a time, so every
    # point is summed the same way whatever the size of ``times``.
    mean, mean_sq = functools.reduce(np.add, sums) / n_traj
    var = np.clip(mean_sq - mean**2, 0.0, None)
    t1_factor = noise.longitudinal_factor(times)
    signal = mean * t1_factor
    stderr = np.sqrt(var / n_traj) * t1_factor
    meta = {
        "sequence": seq.name,
        "engine": "mc",
        "seed": int(seed),
        "n_traj": int(n_traj),
        "mc_stream": MC_STREAM,
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
        fitkit.check_multiplicities(self.multiplicities)

    @classmethod
    def doublet(cls, detuning_hz: float, a_parallel_hz: float) -> "HyperfineTriplet":
        return cls(detuning_hz, a_parallel_hz, fitkit.DOUBLET_MULTIPLICITIES)


def simulate_fid_beats(triplet: HyperfineTriplet, t2_star_s: float, times_s) -> DecayCurve:
    """Free-induction decay with hyperfine beats.

    signal(t) = exp(-t/T2*) * sum_m w_m cos(2 pi (delta + m*A) t)
    """
    if not t2_star_s > 0:
        raise ValueError("t2_star_s must be positive")
    times = np.asarray(times_s, dtype=float)
    theta = [1.0, t2_star_s, triplet.detuning_hz, triplet.a_parallel_hz, 0.0]
    signal = fitkit.FitModel.fid_beats(triplet.multiplicities).predict(times, theta)
    meta = {
        "sequence": "ramsey_fid",
        "engine": "fid_beats",
        "detuning_hz": triplet.detuning_hz,
        "a_parallel_hz": triplet.a_parallel_hz,
        "t2_star_s": t2_star_s,
    }
    return DecayCurve(times_s=times, signal=signal, meta=meta)


def decay_time_grid(seq: PulseSequence, noise: NoiseModel, n_points: int = 24) -> np.ndarray:
    """Log-spaced total-time grid covering -ln(signal) in [GRID_DECAY_LO, GRID_DECAY_HI].

    The total decay exponent chi(t) + (t/T1)^q is monotone in t, so both
    endpoints are found together by one bisection on the pair of targets.
    """
    return _decay_time_grids(seq.n_pi, noise, n_points)[0]


def _grid_guess(target, lo, f_lo, hi, f_hi, hi2, f_hi2) -> float:
    """Where the exponent f reaches ``target``: the power law through (hi, f_hi) and (lo, f_lo), or
    (hi2, f_hi2) while f_lo is 0.  It sets the kernel calls of :func:`_decay_time_grids`, not its grids."""
    t0, f0 = (lo, f_lo) if f_lo > 0 else (hi2, f_hi2)
    try:
        return hi * (target / f_hi) ** (math.log(hi / t0) / math.log(f_hi / f0))
    except (ArithmeticError, ValueError):  # a ratio of 1, 0 or inf
        return hi


def _decay_time_grids(n, noise: NoiseModel, n_points: int) -> list[np.ndarray]:
    """The grid of :func:`decay_time_grid` for each pulse count of ``n``, sharing every kernel call.

    ``n`` is a pulse count, or a 1-D array of counts >= 1 as :func:`_chi`
    takes them: Ramsey comes only as the scalar 0.  Each count is a column
    of the probe and has two columns, one per target, in the bisection.  A
    column's grid is bit for bit the one it gets on its own.  Raises
    ``ValueError`` when the low target's bracket still starts at 0 after the
    bisection: the decay starts below every time it reached.
    """
    def total_exponent(chi, t):
        return np.maximum(chi, 0.0) + noise.longitudinal_exponent(t)

    # Upper bracket: the first tau_c * 2^k whose exponent reaches
    # GRID_DECAY_HI.  chi is evaluated on every candidate in one call; the
    # scan stops at the first crossing or non-finite chi, whichever comes
    # first, so a non-finite chi past the first crossing is never looked at.
    # The first column that fails raises.
    with np.errstate(over="ignore"):
        probes = np.ldexp(noise.tau_c_s, np.arange(GRID_MAX_DOUBLINGS))[:, None]
    chi = _chi(n, noise, probes)
    probe_total = total_exponent(chi, probes)
    stop = ~np.isfinite(chi) | (probe_total >= GRID_DECAY_HI)
    k = np.argmax(stop, axis=0).tolist()
    for j, kj in enumerate(k):
        if not stop[kj, j]:
            raise ValueError("noise model produces no appreciable decay")
        if not np.isfinite(chi[kj, j]):
            raise NumericalFailure("attenuation exponent is not finite")

    # Bisection on both targets of every column: GRID_BISECTION_STEPS steps of
    # mid = 0.5 * (lo + hi) from (0, tau_c * 2^k), lo moving to mid where the
    # exponent there is below the target.  A target's state is [lo, f(lo), hi,
    # f(hi), the hi before (the probe above at first), its f, steps left].  Steps
    # are taken with the real verdicts along a path of known midpoints, up to
    # and including the first verdict its guess got wrong.  The first path is the
    # probe ladder tau_c * 2^(k-1), ..., tau_c, guessed never below; then each
    # kernel call evaluates every target's path as _grid_guess predicts it, up
    # to the steps left or until lo and hi are adjacent floats, after which
    # every midpoint rounds to lo or hi, whose verdicts are known.  Each step
    # taken is the bisection's own, so lo and hi come out bit for bit whatever
    # the guess, provided the kernel gives each point the same value whatever
    # else is in its call.  The points are >= 0 by construction.
    def take_steps(state, target, guess, path, totals):
        for mid, total in zip(path[:state[6]], totals):
            state[6] -= 1
            below = total < target
            if below:
                state[:2] = mid, total
            else:
                state[2:6] = mid, total, *state[2:4]
            if below != (mid < guess):
                return

    targets = [GRID_DECAY_LO, GRID_DECAY_HI] * len(k)
    pair_n = np.repeat(n, 2) if np.ndim(n) else n
    ladder = [*probes[:, 0].tolist(), math.inf]
    states = []
    for target, kj, f in zip(targets, np.repeat(k, 2).tolist(), np.repeat(probe_total, 2, axis=1).T.tolist()):
        f.append(math.inf)
        states.append([0.0, 0.0, ladder[kj], f[kj], ladder[kj + 1], f[kj + 1], GRID_BISECTION_STEPS])
        take_steps(states[-1], target, 0.0, ladder[:kj][::-1], f[:kj][::-1])
    while True:
        guesses = [_grid_guess(target, *state[:6]) for target, state in zip(targets, states)]
        paths = [[] for _ in states]
        for guess, path, (lo, _, hi, *_, left) in zip(guesses, paths, states):
            while len(path) < left and math.nextafter(lo, hi) != hi:
                path.append(0.5 * (lo + hi))
                lo, hi = (path[-1], hi) if path[-1] < guess else (lo, path[-1])
        if not any(paths):
            break
        points = np.array(list(itertools.zip_longest(*paths, fillvalue=0.0)))
        chi = _chi(pair_n, noise, points)
        if not np.isfinite(chi).all():
            raise NumericalFailure("attenuation exponent is not finite")
        for step in zip(states, targets, guesses, paths, total_exponent(chi, points).T.tolist()):
            take_steps(*step)
    grids = []
    ends = [0.5 * (lo + hi) for lo, _, hi, *_ in states]
    for (lo, _, hi, *_), t_lo, t_hi in zip(states[0::2], ends[0::2], ends[1::2]):
        if lo == 0.0:  # no time the bisection reached lies below the low target
            raise ValueError(f"decay starts below {hi:.3g} s, the smallest positive time "
                             "the grid bisection reaches; no log grid")
        grids.append(np.geomspace(t_lo, t_hi, n_points))
    return grids


def _analytic_curves(seqs, noise: NoiseModel, n_points: int) -> list[DecayCurve]:
    """Each sequence's analytic curve on its :func:`decay_time_grid`; every sequence has n >= 1.

    The grids come from one :func:`_decay_time_grids` pass, bit for bit the per-sequence ones.
    """
    grids = _decay_time_grids(np.array([seq.n_pi for seq in seqs]), noise, n_points)
    return [simulate_analytic(seq, noise, times) for seq, times in zip(seqs, grids)]


def t2_vs_n(noise: NoiseModel, n_list, n_points: int = 40) -> list[tuple[int, float]]:
    """Coherence time versus number of CPMG pi pulses.

    Builds the log-spaced grid of every CPMG(n) in one grid pass, simulates
    each decay with the analytic engine, then fits them all with
    :func:`fitkit.extract_t2_table`, which raises at the first failed fit, in
    ``n_list`` order, with its n attached.
    """
    if not n_list:
        raise ValueError("n_list must be non-empty")
    # Canonical spacing; the engines rescale each sequence to each total time.
    seqs = [build_sequence("cpmg", 1e-6, n=n) for n in n_list]
    curves = zip([seq.n_pi for seq in seqs], _analytic_curves(seqs, noise, n_points))
    return [(row.n, row.t2_s) for row in fitkit.extract_t2_table(curves)]
