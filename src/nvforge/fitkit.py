"""Nonlinear least-squares fitting of decay models to sampled curves.

Four models are supported, each with a free amplitude ``a`` and baseline
``c`` on top of the physical parameters (baselines are routine in measured
PL curves; pass ``fix={"c": 0.0}`` to pin the offset):

- ``exp_t2star``:     a * exp(-t/T2*) + c
- ``stretched_exp``:  a * exp(-(t/T2)^p) + c
- ``t1_stretched``:   a * exp(-(t/T1)^q) + c
- ``fid_beats``:      a * exp(-t/T2*) * sum_m w_m cos(2 pi (delta + m*A) t) + c

Stretching exponents are bounded to [0.3, 3.0] to prevent degenerate fits.
Self-starting is deterministic: baselines from the curve tail, decay times
and exponents from a log(-log s) versus log t regression on the upper part
of the signal, and oscillation frequencies from the curve periodogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import MODEL_PARAMS, TRIPLET_MULTIPLICITIES, NumericalFailure, check_multiplicities
from .dataio import DecayCurve, median
from .levmar import covariance_from_jacobian, lm_least_squares, lm_least_squares_batch

EXPONENT_BOUNDS = (0.3, 3.0)

#: Parameter name -> (lower, upper) bound; any other parameter is unbounded.
_PARAM_BOUNDS = {
    "t2_star_s": (1e-300, np.inf),
    "t2_s": (1e-300, np.inf),
    "t1_s": (1e-300, np.inf),
    "p": EXPONENT_BOUNDS,
    "q": EXPONENT_BOUNDS,
    "a_hf_hz": (0.0, np.inf),
}


class FitError(NumericalFailure):
    """A fit failed; the CLI reports it as a numerical failure (exit 4)."""


class RankDeficientDataError(FitError):
    """The data carry no usable variation (e.g. constant signal)."""


class FitConvergenceError(FitError):
    """Fit failed to converge; ``best_result`` holds the best point found."""

    def __init__(self, message: str, best_result: "FitResult"):
        super().__init__(message)
        self.best_result = best_result


@dataclass(frozen=True)
class FitModel:
    """A named decay model with fixed structure and free parameters."""

    kind: str
    multiplicities: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def exp_t2star(cls) -> "FitModel":
        return cls("exp_t2star")

    @classmethod
    def stretched_exp(cls) -> "FitModel":
        return cls("stretched_exp")

    @classmethod
    def t1_stretched(cls) -> "FitModel":
        return cls("t1_stretched")

    @classmethod
    def fid_beats(cls, multiplicities=TRIPLET_MULTIPLICITIES) -> "FitModel":
        return cls("fid_beats", check_multiplicities(multiplicities))

    @property
    def param_names(self) -> tuple[str, ...]:
        return MODEL_PARAMS[self.kind]

    def predict(self, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return self.evaluate(t, theta)[0]

    def evaluate(self, t: np.ndarray, theta: np.ndarray):
        """The model at ``theta``, and a function that returns its Jacobian there, (N, parameters).

        The Jacobian reuses the model's exponentials and beat phases, so an
        LM step pays for them once.  For the stretched models ``t`` may also
        be a stack (B, N) of curves, each parameter of ``theta`` a (B, 1)
        column and the Jacobian (B, N, parameters): each curve gets the bits
        of its own call.
        """
        if self.kind == "exp_t2star":
            a, tc, c = theta
            env = np.exp(-t / tc)
            a_env = a * env

            def jacobian():
                jac = np.empty((t.size, 3))
                jac[:, 0] = env
                jac[:, 1] = a_env * t / tc**2
                jac[:, 2] = 1.0
                return jac

            return a_env + c, jacobian
        if self.kind in ("stretched_exp", "t1_stretched"):
            a, tc, p, c = theta
            if t.ndim > 1:  # each row to its own scalar power: numpy takes x ** 2, x ** 0.5 and x ** -1
                # as x * x, sqrt(x) and 1 / x for a scalar power, not for a column of powers
                z = np.array([row ** p_row for row, p_row in zip(t / tc, p[:, 0])])
            else:
                z = (t / tc) ** p
            env = np.exp(-z)
            a_env = a * env

            def jacobian():
                jac = np.empty(t.shape + (4,))
                jac[..., 0] = env
                jac[..., 1] = a_env * z * p / tc
                # d/dp uses z*log(t/tc); safe because fits require t > 0.
                jac[..., 2] = -a_env * z * np.log(t / tc)
                jac[..., 3] = 1.0
                return jac

            return a_env + c, jacobian
        a, tc, delta, ahf, c = theta
        env = np.exp(-t / tc)
        # Lines summed in order: beat = sum_m w_m cos(2 pi (delta + m*A) t).
        phases = [2 * math.pi * (delta + m * ahf) * t for m, _ in self.multiplicities]
        beat = np.zeros_like(t)
        for (_, w), phase in zip(self.multiplicities, phases):
            beat += w * np.cos(phase)
        a_env = a * env
        a_env_beat = a_env * beat

        def jacobian():
            d_delta = np.zeros_like(t)
            d_ahf = np.zeros_like(t)
            for (m, w), phase in zip(self.multiplicities, phases):
                s = np.sin(phase)
                d_delta -= w * 2 * math.pi * t * s
                d_ahf -= w * m * 2 * math.pi * t * s
            jac = np.empty((t.size, 5))
            jac[:, 0] = env * beat
            jac[:, 1] = a_env_beat * t / tc**2
            jac[:, 2] = a_env * d_delta
            jac[:, 3] = a_env * d_ahf
            jac[:, 4] = 1.0
            return jac

        return a_env_beat + c, jacobian

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = zip(*(_PARAM_BOUNDS.get(name, (-np.inf, np.inf)) for name in self.param_names))
        return np.asarray(lo), np.asarray(hi)

    def initial_guess(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.kind == "fid_beats":
            return self._fid_initial_guess(t, y)
        n_tail = max(1, t.size // 20)
        c0 = float(np.mean(y[-n_tail:]))
        a0 = float(np.max(y) - c0)
        if a0 <= 0:
            a0 = float(np.ptp(y)) or 1.0
            c0 = float(np.min(y))
        s = np.clip((y - c0) / a0, 1e-6, 1 - 1e-6)
        mask = s > 0.2
        t_scale = float(median(t))
        p0 = 1.0
        if np.count_nonzero(mask) >= 2:
            u = np.log(t[mask])
            v = np.log(-np.log(s[mask]))
            slope, intercept = np.polyfit(u, v, 1)
            if np.isfinite(slope) and slope > 0:
                p0 = min(max(float(slope), EXPONENT_BOUNDS[0]), EXPONENT_BOUNDS[1])
                t_scale = float(np.exp(-intercept / slope))
        if self.kind == "exp_t2star":
            return np.array([a0, t_scale, c0])
        return np.array([a0, t_scale, p0, c0])

    def _fid_initial_guess(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        c0 = float(np.mean(y))
        resid = y - c0
        a0 = float(np.max(np.abs(resid))) or 1.0
        lines = spectral_lines(t, resid)
        span = float(t[-1] - t[0])
        periods = max(lines, key=lambda line: line[1])[0] * span
        if periods < 5.0:
            raise ValueError(f"curve spans {periods:.2f} oscillation periods; need >= 5")
        freqs = np.array([f for f, _ in lines])
        # For a symmetric multiplet the unweighted line centroid equals the
        # detuning, and the largest offset is max|m| * A.
        delta0 = float(np.mean(freqs))
        max_m = max(abs(m) for m, _ in self.multiplicities) or 1.0
        ahf0 = float(np.max(np.abs(freqs - delta0))) / max_m
        return np.array([a0, span / 2.0, delta0, ahf0, c0])


def spectral_lines(t: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """Significant oscillation lines of a (possibly log-sampled) curve.

    Resamples N samples that are not uniform onto max(4096, 4N) uniform
    points, zero pads to at least 4x the length, rounded up to a power of
    two (a fast FFT length), and returns the local maxima of |FFT| that
    reach 30% of the strongest one, as (frequency, magnitude) pairs sorted
    by frequency.  Always contains at least the global peak.
    """
    step = (t[-1] - t[0]) / (t.size - 1)
    if np.ptp(np.diff(t)) > 1e-6 * step:  # not uniform to a millionth of a step
        tu = np.linspace(t[0], t[-1], max(4096, 4 * t.size))
        y, step = np.interp(tu, t, y), tu[1] - tu[0]
    n_fft = 1 << (4 * y.size - 1).bit_length()
    spec = np.abs(np.fft.rfft(y, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, d=step)
    spec[0] = 0.0
    k_peak = int(np.argmax(spec))
    keep = np.zeros(spec.size, dtype=bool)
    keep[1:-1] = (spec[1:-1] > spec[:-2]) & (spec[1:-1] >= spec[2:])
    keep[k_peak] = True
    keep &= spec >= 0.3 * spec[k_peak]
    return list(zip(freqs[keep].tolist(), spec[keep].tolist()))


@dataclass
class FitResult:
    """Fitted parameters with standard errors from the Jacobian at optimum."""

    model: str
    params: dict[str, float]
    stderr: dict[str, float]
    residual_rms: float
    converged: bool
    n_iter: int

    def as_dict(self) -> dict:
        """The fields as ``dataclasses.asdict`` gives them, for ``fit_result.json``."""
        return {"model": self.model, "params": dict(self.params), "stderr": dict(self.stderr),
                "residual_rms": self.residual_rms, "converged": self.converged, "n_iter": self.n_iter}


def _start(curve: DecayCurve, model: FitModel, fix: dict[str, float] | None):
    """The checks of :func:`fit` and its start: (indices of the free parameters, every parameter's start)."""
    t = curve.times_s
    y = curve.signal
    if np.any(t <= 0):
        raise ValueError("fit requires strictly positive times")
    names = model.param_names
    fix = dict(fix or {})
    for name in fix:
        if name not in names:
            raise ValueError(f"unknown fixed parameter {name!r}")
    free_idx = np.array([i for i, n in enumerate(names) if n not in fix], dtype=np.intp)
    if t.size < 3 * free_idx.size:
        raise ValueError(
            f"need at least {3 * free_idx.size} points to fit {free_idx.size} parameters"
        )
    if float(np.ptp(y)) < 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        raise RankDeficientDataError("signal is constant; nothing to fit")

    theta_full = model.initial_guess(t, y)
    for name, value in fix.items():
        theta_full[names.index(name)] = value
    return free_idx, theta_full


def _result(model: FitModel, free_idx: np.ndarray, theta_full: np.ndarray, res, n_points: int) -> FitResult:
    """The :class:`FitResult` of an LM result from the start ``theta_full``; raises
    :class:`FitConvergenceError` if it did not converge."""
    names = model.param_names
    theta_opt = theta_full.copy()
    theta_opt[free_idx] = res.x
    cov = covariance_from_jacobian(res.jacobian, res.sse, n_points)
    stderr_free = np.sqrt(np.maximum(cov.diagonal(), 0.0))
    params = {n: float(v) for n, v in zip(names, theta_opt)}
    stderr = {n: 0.0 for n in names}
    for i, e in zip(free_idx.tolist(), stderr_free.tolist()):
        stderr[names[i]] = e

    result = FitResult(
        model=model.kind,
        params=params,
        stderr=stderr,
        residual_rms=float(np.sqrt(res.sse / n_points)),
        converged=res.converged,
        n_iter=res.n_iter,
    )
    if not res.converged:
        raise FitConvergenceError(f"fit did not converge: {res.message}", result)
    return result


def fit(curve: DecayCurve, model: FitModel, fix: dict[str, float] | None = None) -> FitResult:
    """Fit a decay model to a curve by damped least squares.

    Parameters
    ----------
    curve:
        Input data; requires strictly positive times and at least three
        data points per free parameter.
    fix:
        Parameters to hold at given values (e.g. ``{"c": 0.0}``).

    Raises
    ------
    ValueError
        For a ``fid_beats`` curve whose strongest line spans fewer than
        five oscillation periods.
    RankDeficientDataError
        For constant (informationless) signal.
    FitConvergenceError
        If the iteration cap is reached; carries the best-so-far result.
    """
    free_idx, theta_full = _start(curve, model, fix)
    t, y = curve.times_s, curve.signal
    lo, hi = model.bounds()

    def evaluate(theta_free: np.ndarray):
        theta = theta_full.copy()
        theta[free_idx] = theta_free
        predicted, jacobian = model.evaluate(t, theta)
        return predicted - y, lambda: jacobian()[:, free_idx]

    res = lm_least_squares(evaluate, theta_full[free_idx], lower=lo[free_idx], upper=hi[free_idx])
    return _result(model, free_idx, theta_full, res, t.size)


def fit_envelope(curve: DecayCurve, multiplicities=TRIPLET_MULTIPLICITIES) -> FitResult:
    """T2* of an oscillating free-induction curve: :func:`fit` with the beat model."""
    return fit(curve, FitModel.fid_beats(multiplicities))


@dataclass
class T2TableRow:
    n: int
    t2_s: float
    p: float
    stderr_t2_s: float
    stderr_p: float


def _table_fits(curves) -> list:
    """``fit(curve, FitModel.stretched_exp(), fix={"c": 0.0})`` of each curve, bit for bit: its
    :class:`FitResult` or the exception that fit raises.  The curves of one size are fitted
    together, by :func:`~nvforge.levmar.lm_least_squares_batch`."""
    model, fix = FitModel.stretched_exp(), {"c": 0.0}
    lo, hi = model.bounds()
    outcomes, sizes = [None] * len(curves), {}
    for i, curve in enumerate(curves):
        try:
            free_idx, theta_full = _start(curve, model, fix)  # the same free_idx for every curve
        except Exception as exc:  # the curve's outcome, as fit raises it
            outcomes[i] = exc
        else:
            sizes.setdefault(curve.times_s.size, []).append((i, theta_full))
    for batch in sizes.values():
        ids = [i for i, _ in batch]
        starts = np.array([theta_full for _, theta_full in batch])
        t = np.array([curves[i].times_s for i in ids])
        y = np.array([curves[i].signal for i in ids])

        def evaluate(rows, x, t=t, y=y, starts=starts):
            theta = starts[rows]
            theta[:, free_idx] = x
            predicted, jacobian = model.evaluate(t[rows], theta.T[:, :, None])
            # take copies the free rows of each J^T into one C-contiguous (rows, k, N) array.
            return predicted - y[rows], lambda: np.take(jacobian().swapaxes(1, 2), free_idx, axis=1)

        shape = (len(ids), free_idx.size)
        results = lm_least_squares_batch(evaluate, starts[:, free_idx], np.broadcast_to(lo[free_idx], shape),
                                         np.broadcast_to(hi[free_idx], shape))
        for i, theta_full, res in zip(ids, starts, results):
            outcomes[i] = res
            if not isinstance(res, Exception):
                try:
                    outcomes[i] = _result(model, free_idx, theta_full, res, t.shape[1])
                except Exception as exc:  # the curve's outcome, as fit raises it
                    outcomes[i] = exc
    return outcomes


def extract_t2_table(labeled_curves) -> list[T2TableRow]:
    """Fit a stretched exponential to each (n, curve) pair, all together (see :func:`_table_fits`).

    The first failed fit, in input order, raises: a :class:`FitError` with
    its n attached, chained from the fit's own error, or any other error as
    the fit raised it.
    """
    labeled = list(labeled_curves)
    rows = []
    for (n, _), outcome in zip(labeled, _table_fits([curve for _, curve in labeled])):
        if isinstance(outcome, FitError):
            raise FitError(f"T2 fit failed for n={int(n)}: {outcome}") from outcome
        if isinstance(outcome, Exception):
            raise outcome
        rows.append(T2TableRow(n=int(n), t2_s=outcome.params["t2_s"], p=outcome.params["p"],
                               stderr_t2_s=outcome.stderr["t2_s"], stderr_p=outcome.stderr["p"]))
    return rows
