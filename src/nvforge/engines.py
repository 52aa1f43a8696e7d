"""Coherence-decay engines for pulse sequences under an OU dephasing bath.

Two independent routes compute the same quantity for a sequence of n
equally spaced pi pulses (:class:`nvforge.sequences.PulseSequence`):

- :func:`simulate_analytic` evaluates the Gaussian-noise attenuation
  exponent chi(t) = 1/2 * double-integral of s(t1) s(t2) b^2
  exp(-|t1-t2|/tau_c) with :func:`attenuation_exponent`, the CPMG filter
  function in closed form (Cywinski et al., PRB 77, 174509 (2008)): O(1)
  per time point for any n, exact to a few ulps, and >= 0 by construction.
  It returns exp(-chi) exp(-(t/T1)^q) from ``NoiseModel.decay_signal``.

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
  The T1 channel comes from the same ``decay_signal``, with chi = 0.

Monte-Carlo runs are bit-reproducible for a fixed seed regardless of
evaluation order: trajectories are partitioned into fixed-size blocks and
each block draws from its own counter-based Philox stream keyed by
(seed, block index).  Block partial sums are combined in index order.
Two workers each draw and sum whole chunks of up to MC_GROUP_ROWS rows
(:func:`_mc_two_workers`); longer chunks are drawn a group ahead by a helper
(:class:`_NormalsAhead`).  Both read each block's stream in order into 2 MiB
at most, and as a Philox fill is sequential, the bytes are the block's own.
Every time point has the same number of cells, so each draw drives all
time points at once: the points are correlated, each stays exact in
distribution, and a point's value does not depend on the other points.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .constants import DOUBLET_MULTIPLICITIES, TRIPLET_MULTIPLICITIES, NumericalFailure, check_multiplicities, check_positive
from .dataio import DecayCurve
from .noise import NoiseModel, ou_cell_coefficients, seeded_rng
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
#: Most rows filled in one call: a chunk of at most this many goes whole to :func:`_mc_two_workers`;
#: a longer one is split evenly into as few groups as this allows (:class:`_NormalsAhead`).
MC_GROUP_ROWS = 64

#: Decay window of :func:`decay_time_grid`, in -ln(signal).
GRID_DECAY_LO = 0.02
GRID_DECAY_HI = 3.0
#: Doublings of tau_c searched for an upper bracket, and bisection steps (as many halvings are probed).
GRID_MAX_DOUBLINGS = 200
GRID_BISECTION_STEPS = 80
#: Points of the grid's dense call in each open bracket, and the most floats a bracket may hold
#: when the final call evaluates them all; the first guess interpolates through GRID_GUESS_POINTS.
GRID_DENSE_POINTS, GRID_GUESS_POINTS = 64, 8
_GRID_DENSE_FRACTIONS = np.arange(1, GRID_DENSE_POINTS + 1) / (GRID_DENSE_POINTS + 1)


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


def _finite_chi(n, noise: NoiseModel, times_s) -> np.ndarray:
    """:func:`_chi` after :func:`check_times`; a chi that is not finite raises :class:`NumericalFailure`."""
    check_times(times_s)
    chi = _chi(n, noise, times_s)
    if not np.isfinite(chi).all():
        raise NumericalFailure("attenuation exponent is not finite")
    return chi


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
    return _finite_chi(seq.n_pi, noise, times_s)[()]


def simulate_analytic(seq: PulseSequence, noise: NoiseModel, times_s) -> DecayCurve:
    """Deterministic coherence curve exp(-chi(t)) * exp(-(t/T1)^q)."""
    times = np.asarray(times_s, dtype=float)
    meta = {"sequence": seq.name, "engine": "analytic", "noise": noise.as_dict()}
    signal = noise.decay_signal(attenuation_exponent(seq, noise, times), times)
    return DecayCurve(times_s=times, signal=signal, meta=meta)


class _NormalsAhead:
    """Each block's Philox normals, drawn one group ahead on a helper thread and read in place.

    ``walk`` lists (block index, width) for every chunk in the caller's
    order, and each chunk takes ``rows`` rows of its width.  Two
    buffers circulate through two queues: the helper takes an empty one,
    fills a group of at most MC_GROUP_ROWS rows from ``seeded_rng(seed,
    block)`` and puts (buffer, group) on the filled one; :meth:`chunk`
    yields the rows and puts the buffer back.  A Philox fill is sequential
    (one (g, n) fill is g successive n-wide fills), so each row is what the
    block's own generator gives at that point of its stream.  The helper
    stops on taking None, which exit puts, also after an error on either
    side; its own error goes over as (None, error) for :meth:`chunk` to raise.
    """

    def __init__(self, seed: int, walk, rows: int):
        import queue
        groups = -(-rows // MC_GROUP_ROWS)
        self._sizes = [rows // groups + (i < rows % groups) for i in range(groups)]
        width = max(w for _, w in walk)
        self._empty, self._filled = queue.SimpleQueue(), queue.SimpleQueue()
        for _ in range(2):
            self._empty.put(np.empty(self._sizes[0] * width))
        self._thread = threading.Thread(target=self._fill, args=(seed, walk), daemon=True)

    def _fill(self, seed: int, walk) -> None:
        try:
            for ib, chunks in itertools.groupby(walk, key=lambda chunk: chunk[0]):
                rng = seeded_rng(seed, ib)
                for _, width in chunks:
                    for size in self._sizes:
                        buffer = self._empty.get()
                        if buffer is None:
                            return
                        self._filled.put((buffer, rng.standard_normal(out=buffer[: size * width].reshape(size, width))))
        except BaseException as exc:
            self._filled.put((None, exc))

    def chunk(self):
        """The next chunk's rows, read in place; each group's buffer goes back once its rows are used."""
        for _ in self._sizes:
            buffer, group = self._filled.get()
            if buffer is None:
                raise group
            yield from group
            self._empty.put(buffer)

    def __enter__(self) -> "_NormalsAhead":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._empty.put(None)
        self._thread.join()


def _mc_two_workers(seed: int, walk, weights: np.ndarray) -> list:
    """The sums of each chunk of ``walk``, (block, width) pairs, from the caller and one helper thread.

    Under one lock a worker takes the next chunk and draws its rows from
    ``seeded_rng(seed, block)`` into its own buffer, so each stream is read
    in walk order; it sums them unlocked.  After a failure neither takes
    another chunk; the helper is joined, and the first error is raised.
    """
    n_rows, width = weights.shape[0], max(w for _, w in walk)
    todo, lock, rngs, errors, sums = iter(range(len(walk))), threading.Lock(), {}, [], [None] * len(walk)

    def work() -> None:
        try:
            np.setbufsize(MC_UFUNC_BUFSIZE)  # the ufunc buffer is per thread
            buffer = np.empty(n_rows * width)
            while True:
                with lock:
                    k = next(todo, None)
                    if k is None or errors:
                        return
                    ib, chunk_n = walk[k]
                    if ib not in rngs:
                        rngs[ib] = seeded_rng(seed, ib)
                    rows = rngs[ib].standard_normal(out=buffer[: n_rows * chunk_n].reshape(n_rows, chunk_n))
                sums[k] = _mc_chunk_sums(rows, chunk_n, weights)
        except BaseException as exc:
            errors.append(exc)

    helper = threading.Thread(target=work, daemon=True)
    helper.start()
    work()  # never raises: each worker keeps its error
    helper.join()
    if errors:
        raise errors[0]
    return sums


def _mc_chunk_sums(rows, chunk_n: int, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum and sum-of-squares of cos(phase) at every time point over chunk_n trajectories.

    The phase is the sum over the chunk's draws of ``weights[d]``, a column
    of shape (n_times, 1), times row d of the chunk_n-wide ``rows``, read in
    place, so the working arrays stay at (n_times, chunk_n) for any number
    of cells.  One row too few or too many raises ``ValueError``; checking
    for one too many runs :meth:`_NormalsAhead.chunk` to its end, which
    puts the chunk's last buffer back; a chunk of :func:`_mc_two_workers`
    is an array in its worker's buffer.  Each draw drives all time points at
    once by broadcasting, so a time point's sums depend only on its own column.
    """
    phase = np.zeros((weights.shape[1], chunk_n))
    term = np.empty_like(phase)
    for w, z in zip(weights, rows, strict=True):
        phase += np.multiply(w, z, out=term)
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
    ``meta["mc_stderr"]``.  Up to CPMG(30), two workers (the caller and a
    helper thread) each draw and sum whole chunks, added in walk order;
    longer chunks are drawn by a helper one group of at most MC_GROUP_ROWS
    rows ahead.  The draws take two buffers of at most MC_GROUP_ROWS x
    MC_CHUNK_SIZE floats, and the helper is joined before the call returns
    or raises.
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
    walk = []  # (block, width) of every chunk
    for ib in range(n_blocks) if _block_order is None else _block_order:
        block_n = min(MC_BLOCK_SIZE, n_traj - ib * MC_BLOCK_SIZE)
        walk += [(ib, min(MC_CHUNK_SIZE, block_n - start)) for start in range(0, block_n, MC_CHUNK_SIZE)]
    old_bufsize = np.setbufsize(MC_UFUNC_BUFSIZE)
    try:
        if weights.shape[0] <= MC_GROUP_ROWS:
            for (ib, _), chunk in zip(walk, _mc_two_workers(seed, walk, weights)):
                sums[ib] += chunk
        else:
            with _NormalsAhead(seed, walk, weights.shape[0]) as draws:
                for ib, chunk_n in walk:
                    sums[ib] += _mc_chunk_sums(draws.chunk(), chunk_n, weights)
    finally:
        np.setbufsize(old_bufsize)

    # Block sums are added in index order, one block at a time, so every
    # point is summed the same way whatever the size of ``times``.
    mean, mean_sq = functools.reduce(np.add, sums) / n_traj
    var = np.clip(mean_sq - mean**2, 0.0, None)
    t1_factor = noise.decay_signal(0.0, times)
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
    multiplicities: tuple[tuple[float, float], ...] = TRIPLET_MULTIPLICITIES

    def __post_init__(self) -> None:
        check_multiplicities(self.multiplicities)

    @classmethod
    def doublet(cls, detuning_hz: float, a_parallel_hz: float) -> "HyperfineTriplet":
        return cls(detuning_hz, a_parallel_hz, DOUBLET_MULTIPLICITIES)


def simulate_fid_beats(triplet: HyperfineTriplet, t2_star_s: float, times_s) -> DecayCurve:
    """Free-induction decay with hyperfine beats.

    signal(t) = exp(-t/T2*) * sum_m w_m cos(2 pi (delta + m*A) t)
    """
    from . import fitkit
    check_positive(t2_star_s=t2_star_s)
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


def _grid_guess(target, ts, fs) -> float:
    """Where the exponent f reaches ``target``, from f = ``fs`` at the increasing times ``ts``: log t as a
    polynomial in log(f/target) through the GRID_GUESS_POINTS points nearest the crossing, by Neville's
    scheme; through two points, the power law.  It sets the kernel calls of :func:`_decay_time_grids`,
    not its grids."""
    first = max(min(bisect.bisect_left(fs, target) - GRID_GUESS_POINTS // 2, len(fs) - GRID_GUESS_POINTS), 0)
    ts, fs = ts[first:first + GRID_GUESS_POINTS], fs[first:first + GRID_GUESS_POINTS]
    t_ref = ts[len(ts) // 2]
    try:
        xs = [math.log(f / target) for f in fs]
        p = [math.log(t / t_ref) for t in ts]
        for k in range(1, len(p)):
            for i in range(len(p) - k):
                p[i] = (xs[i + k] * p[i] - xs[i] * p[i + 1]) / (xs[i + k] - xs[i])
        return t_ref * math.exp(p[0])
    except (ArithmeticError, ValueError):  # f = 0, or two points with the same f
        return ts[-1]


def _decay_time_grids(n, noise: NoiseModel, n_points: int) -> np.ndarray:
    """The grid of :func:`decay_time_grid` for each pulse count of ``n``, sharing every kernel call.

    ``n`` is a pulse count, or a 1-D array of counts >= 1 as :func:`_chi`
    takes them: Ramsey comes only as the scalar 0.  Each count is a column
    of the probe and has two columns, one per target, in the bisection.  A
    column's grid, a row of the result, is bit for bit the one it gets on
    its own.  Raises
    ``ValueError`` when the low target's bracket still starts at 0 after the
    bisection: the decay starts below every time it reached.
    """
    # One kernel call on the probe ladder tau_c * 2^m: the exact doublings m >= 0 and, below them,
    # the GRID_BISECTION_STEPS midpoints of the bisection while lo is 0, halved as it halves them.
    # Upper bracket: the first doubling whose exponent reaches GRID_DECAY_HI; the scan stops there
    # or at a non-finite chi, so a non-finite chi past the first crossing is never looked at.  The
    # first column that fails raises.
    halvings = np.multiply.accumulate([noise.tau_c_s, *[0.5] * GRID_BISECTION_STEPS])
    with np.errstate(over="ignore"):
        probes = np.concatenate([halvings[:0:-1], np.ldexp(noise.tau_c_s, np.arange(GRID_MAX_DOUBLINGS))])[:, None]
    chi = _chi(n, noise, probes)
    probe_total = noise.decay_exponent(chi, probes)
    stop = ~np.isfinite(chi) | (probe_total >= GRID_DECAY_HI)
    stop[:GRID_BISECTION_STEPS] = False  # the bisection starts from (0, tau_c * 2^k), k >= 0
    k = np.argmax(stop, axis=0).tolist()
    for j, kj in enumerate(k):
        if not stop[kj, j]:
            raise ValueError("noise model produces no appreciable decay")
        if not np.isfinite(chi[:kj + 1, j]).all():
            raise NumericalFailure("attenuation exponent is not finite")

    # Bisection on both targets of every column: GRID_BISECTION_STEPS steps of mid = 0.5 * (lo + hi)
    # from (0, tau_c * 2^k), lo moving to mid where the exponent there is below the target.  A
    # target's state is [lo, hi, steps left]; step() takes each step whose midpoint is in the column's
    # memo of evaluated exponents.  The memo starts with the probe ladder up to the bracket's top,
    # whose rungs are the midpoints while lo is 0, so the first steps walk down the ladder.  A target
    # stays open while a step is left and its midpoint lies strictly inside (lo, hi) but not in the
    # memo.  The dense call evaluates GRID_DENSE_POINTS points evenly spaced in log t inside each open
    # bracket (lo > 0) for the first guess; a final call, the path the bisection takes if the guess is
    # right until the bracket holds at most GRID_DENSE_POINTS floats, then each float in it.  A target
    # still open takes another final call, guessed from its bracket ends.  So lo and hi are bit for
    # bit the bisection's whatever the guess, as the kernel gives each point the same value whatever
    # else is in its call.  A midpoint that overflows would ask for chi(inf) and is refused; every
    # other point lies in a bracket whose ends were evaluated as finite.
    targets = [GRID_DECAY_LO, GRID_DECAY_HI] * len(k)
    pair_n = np.repeat(n, 2) if np.ndim(n) else n
    rungs = probes[:, 0].tolist()
    memos = [dict(zip(rungs[:kj + 1], probe_total[:kj + 1, j].tolist())) for j, kj in enumerate(k)]
    states = [[0.0, rungs[k[j // 2]], GRID_BISECTION_STEPS] for j in range(len(targets))]

    def step(j):
        """Take target j's steps whose midpoints are in its memo; whether it is still open."""
        (lo, hi, left), memo, target = states[j], memos[j // 2], targets[j]
        while left and lo < (mid := 0.5 * (lo + hi)) < hi and (f := memo.get(mid)) is not None:
            left -= 1
            if f < target:
                lo = mid
            else:
                hi = mid
        states[j] = [lo, hi, left]
        if left and mid == math.inf:
            raise NumericalFailure("attenuation exponent is not finite")
        return left > 0 and lo < mid < hi

    def evaluate(live, points):
        cols = pair_n[live] if np.ndim(pair_n) else pair_n
        return noise.decay_exponent(_finite_chi(cols, noise, points), points).T.tolist()

    def guess(j, lo, hi, ts=(), fs=()):
        memo = memos[j // 2]
        return _grid_guess(targets[j], [lo, *ts, hi], [memo[lo], *fs, memo[hi]])

    live, guesses = [j for j in range(len(targets)) if step(j)], {}
    if live:
        ends = np.array([states[j][:2] for j in live]).T
        lo, hi = np.log(ends)
        dense = np.exp(lo + np.multiply.outer(_GRID_DENSE_FRACTIONS, hi - lo))
        dense = np.minimum(np.maximum(dense, ends[0]), ends[1])
        guesses = {j: guess(j, *bracket, ts, fs)
                   for j, *bracket, ts, fs in zip(live, *ends.tolist(), dense.T.tolist(), evaluate(live, dense))}
    while live := [j for j in live if step(j)]:
        paths = []
        for j in live:
            lo, hi, left = states[j]
            toward = guesses.pop(j) if j in guesses else guess(j, lo, hi)
            path, width = [], GRID_DENSE_POINTS * math.ulp(lo)  # lo only grows, and ulp(lo) with it
            while len(path) < left and hi - lo > width:
                path.append(mid := 0.5 * (lo + hi))
                lo, hi = (mid, hi) if mid < toward else (lo, mid)
            if len(path) < left:  # stopped on the width: each of the <= GRID_DENSE_POINTS floats inside
                while (lo := math.nextafter(lo, hi)) < hi:
                    path.append(lo)
            paths.append(path)
        totals = evaluate(live, np.array(list(itertools.zip_longest(*paths, fillvalue=0.0))))
        for j, path, fs in zip(live, paths, totals):
            memos[j // 2].update(zip(path, fs))
    for lo, hi, _ in states[0::2]:
        if lo == 0.0:  # no time the bisection reached lies below the low target
            raise ValueError(f"decay starts below {hi:.3g} s, the smallest positive time "
                             "the grid bisection reaches; no log grid")
    ends = np.array([0.5 * (lo + hi) for lo, hi, _ in states]).reshape(-1, 2).T
    return _geomspace(*ends, n_points)


def _geomspace(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """Row j is ``np.geomspace(start[j], stop[j], num)`` bit for bit, for positive finite ends.

    numpy's steps on every row at once: the inner points are 10 to the power
    i * step + log10(start), step = (log10(stop) - log10(start)) / (num - 1),
    and the two ends are start and stop themselves.  ``np.linspace`` takes
    (i / (num - 1)) * delta instead where the step is 0, which for such ends
    happens only where delta is 0, so both give 0.
    """
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
    log_start = np.log10(start)[:, None]
    result = np.power(10.0, np.arange(num) * ((np.log10(stop)[:, None] - log_start) / max(num - 1, 1)) + log_start)
    result[:, -1:] = stop[:, None]
    result[:, :1] = start[:, None]  # last, so that one point is the start
    return result


def _analytic_curves(seqs, noise: NoiseModel, n_points: int) -> list[DecayCurve]:
    """Each sequence's analytic curve on its :func:`decay_time_grid`; every sequence has n >= 1.

    The grids come from one :func:`_decay_time_grids` pass and the signals from one kernel call on
    all of them, a column per sequence, bit for bit the per-sequence curves.
    """
    n = np.array([seq.n_pi for seq in seqs])
    grids = _decay_time_grids(n, noise, n_points)
    signals = noise.decay_signal(_finite_chi(n, noise, grids.T), grids.T).T.copy()  # contiguous rows, as the grids
    return [DecayCurve(times_s=times, signal=signal,
                       meta={"sequence": seq.name, "engine": "analytic", "noise": noise.as_dict()})
            for seq, times, signal in zip(seqs, grids, signals)]


def t2_vs_n(noise: NoiseModel, n_list, n_points: int = 40) -> list[tuple[int, float]]:
    """Coherence time versus number of CPMG pi pulses.

    Builds the log-spaced grid of every CPMG(n) in one grid pass, simulates
    each decay with the analytic engine, then fits them all with
    :func:`fitkit.extract_t2_table`, which raises at the first failed fit, in
    ``n_list`` order, with its n attached.
    """
    from . import fitkit
    if not n_list:
        raise ValueError("n_list must be non-empty")
    # Canonical spacing; the engines rescale each sequence to each total time.
    seqs = [build_sequence("cpmg", 1e-6, n=n) for n in n_list]
    curves = zip([seq.n_pi for seq in seqs], _analytic_curves(seqs, noise, n_points))
    return [(row.n, row.t2_s) for row in fitkit.extract_t2_table(curves)]
