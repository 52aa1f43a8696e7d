"""The LM solver and the decay-model formulas before the solver's per-iteration trim.

``lm_least_squares`` below is kept verbatim, and ``predict`` and
``jacobian`` are ``FitModel``'s methods of that time, with ``self`` renamed
``model``.  ``test_lm_reference.py`` checks that the current solver and
``FitModel.evaluate`` give the same bits on every fit.  This solver enters
``np.errstate`` only around the Jacobian, so its residuals may warn; call
it with warnings ignored, because the suite turns a ``RuntimeWarning``
into an error.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from nvforge.constants import NumericalFailure
from nvforge.levmar import (
    GTOL,
    LAMBDA_GROW,
    LAMBDA_INIT,
    LAMBDA_SHRINK,
    MAX_ITER,
    MAX_LAMBDA,
    XTOL,
    LMResult,
    numeric_jacobian,
)


def lm_least_squares(
    residual: Callable[[np.ndarray], np.ndarray],
    x0,
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
    lower=None,
    upper=None,
) -> LMResult:
    """Minimize sum(residual(x)**2) subject to elementwise box bounds.

    Convergence is declared when an accepted step changes every parameter
    by less than :data:`XTOL` in relative terms, or when the infinity norm
    of the gradient J^T r drops below :data:`GTOL`.  After :data:`MAX_ITER`
    iterations the best point found so far is returned with ``converged =
    False``.  A non-finite residual at the start or a non-finite Jacobian
    anywhere raises :class:`NumericalFailure`.
    """
    x = np.asarray(x0, dtype=float).copy()
    k = x.size
    lo = np.full(k, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(k, np.inf) if upper is None else np.asarray(upper, dtype=float)
    x = np.clip(x, lo, hi)

    def jacobian_at(x, r):
        with np.errstate(all="ignore"):
            jac = jacobian(x) if jacobian is not None else numeric_jacobian(residual, x, r)
        if not np.all(np.isfinite(jac)):
            raise NumericalFailure("Jacobian is not finite")
        return jac

    r = residual(x)
    if not np.all(np.isfinite(r)):
        raise NumericalFailure("residual is not finite at the starting point")
    sse = float(r @ r)
    lam = LAMBDA_INIT
    message = "max_iter reached"
    converged = False
    n_iter = 0

    for n_iter in range(1, MAX_ITER + 1):
        jac = jacobian_at(x, r)
        grad = jac.T @ r
        if float(np.max(np.abs(grad))) < GTOL:
            converged = True
            message = "gradient norm below gtol"
            break
        hess = jac.T @ jac
        diag = np.clip(np.diag(hess), 1e-300, None)

        accepted = False
        while lam <= MAX_LAMBDA:
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_GROW
                continue
            x_trial = np.clip(x + step, lo, hi)
            r_trial = residual(x_trial)
            sse_trial = float(r_trial @ r_trial)
            if np.isfinite(sse_trial) and sse_trial < sse:
                moved = np.abs(x_trial - x)
                rel_move = float(np.max(moved / (np.abs(x) + 1e-300)))
                x, r, sse = x_trial, r_trial, sse_trial
                lam = max(lam * LAMBDA_SHRINK, 1e-14)
                accepted = True
                if rel_move < XTOL:
                    converged = True
                    message = "relative step below xtol"
                break
            lam *= LAMBDA_GROW
        if not accepted:
            # No descent direction at any damping: stationary point.
            converged = True
            message = "no further decrease possible"
            break
        if converged:
            break

    return LMResult(
        x=x,
        sse=sse,
        converged=converged,
        n_iter=n_iter,
        jacobian=jacobian_at(x, r),
        message=message,
    )


def beat_sum(multiplicities, delta_hz: float, a_hf_hz: float, t: np.ndarray) -> np.ndarray:
    """Hyperfine beats sum_m w_m cos(2 pi (delta + m*A) t), lines summed in order."""
    out = np.zeros_like(t)
    for m, w in multiplicities:
        out += w * np.cos(2 * math.pi * (delta_hz + m * a_hf_hz) * t)
    return out


def predict(model, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    if model.kind == "exp_t2star":
        a, tc, c = theta
        return a * np.exp(-t / tc) + c
    if model.kind in ("stretched_exp", "t1_stretched"):
        a, tc, p, c = theta
        return a * np.exp(-((t / tc) ** p)) + c
    a, tc, delta, ahf, c = theta
    return a * np.exp(-t / tc) * beat_sum(model.multiplicities, delta, ahf, t) + c


def jacobian(model, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    if model.kind == "exp_t2star":
        a, tc, c = theta
        env = np.exp(-t / tc)
        return np.column_stack([env, a * env * t / tc**2, np.ones_like(t)])
    if model.kind in ("stretched_exp", "t1_stretched"):
        a, tc, p, c = theta
        z = (t / tc) ** p
        env = np.exp(-z)
        # d/dp uses z*log(t/tc); safe because fits require t > 0.
        return np.column_stack(
            [
                env,
                a * env * z * p / tc,
                -a * env * z * np.log(t / tc),
                np.ones_like(t),
            ]
        )
    a, tc, delta, ahf, c = theta
    env = np.exp(-t / tc)
    beat = beat_sum(model.multiplicities, delta, ahf, t)
    d_delta = np.zeros_like(t)
    d_ahf = np.zeros_like(t)
    for m, w in model.multiplicities:
        s = np.sin(2 * math.pi * (delta + m * ahf) * t)
        d_delta -= w * 2 * math.pi * t * s
        d_ahf -= w * m * 2 * math.pi * t * s
    return np.column_stack(
        [env * beat, a * env * beat * t / tc**2, a * env * d_delta, a * env * d_ahf, np.ones_like(t)]
    )


def evaluate(model, t: np.ndarray, theta: np.ndarray):
    """``FitModel.evaluate`` from the formulas above, each term computed afresh."""
    return predict(model, t, theta), lambda: jacobian(model, t, theta)
