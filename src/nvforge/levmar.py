"""Damped least-squares (Levenberg-Marquardt) minimizer.

Trust-region flavored LM on the squared-residual objective with Marquardt
diagonal scaling and simple box projection; a step is accepted only if it
lowers the objective.  Written in-house so fit contracts (iteration cap,
convergence criteria, best-so-far on failure, stop reason) are under
direct control.

The whole solve runs under one ``np.errstate(all="ignore")``, so it never
warns: a trial step whose residual overflows has a non-finite SSE and is
rejected like any step that does not lower the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import NumericalFailure

MAX_LAMBDA = 1e14
LAMBDA_INIT = 1e-3
LAMBDA_SHRINK = 0.3
LAMBDA_GROW = 4.0

# Stopping rules: iteration cap, relative step and gradient infinity norm.
MAX_ITER = 500
XTOL = 1e-8
GTOL = 1e-10


@dataclass
class LMResult:
    x: np.ndarray
    sse: float
    converged: bool
    n_iter: int
    jacobian: np.ndarray | None = None
    message: str = ""


def numeric_jacobian(residual: Callable[[np.ndarray], np.ndarray], x: np.ndarray, r0: np.ndarray):
    """Forward-difference Jacobian of a residual vector; ``r0`` is residual(x)."""
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = 1e-7 * max(abs(x[j]), 1e-9)
        xp = x.copy()
        xp[j] += h
        jac[:, j] = (residual(xp) - r0) / h
    return jac


def forward_differences(residual: Callable[[np.ndarray], np.ndarray]):
    """An ``evaluate`` for :func:`lm_least_squares` from a residual alone, with its :func:`numeric_jacobian`."""
    def evaluate(x):
        r = residual(x)
        return r, lambda: numeric_jacobian(residual, x, r)
    return evaluate


@np.errstate(all="ignore")
def lm_least_squares(evaluate, x0, lower=None, upper=None) -> LMResult:
    """Minimize sum(r**2) subject to elementwise box bounds.

    ``evaluate(x)`` returns the residual vector r at x and a function of no
    arguments that returns the Jacobian of r there.  The Jacobian is asked
    for once per accepted point, the start included.

    Convergence is declared when an accepted step changes every parameter
    by less than :data:`XTOL` in relative terms, or when the infinity norm
    of the gradient J^T r drops below :data:`GTOL`.  After :data:`MAX_ITER`
    iterations the best point found so far is returned with ``converged =
    False``.  A non-finite residual at the start or a non-finite Jacobian
    anywhere raises :class:`NumericalFailure`.
    """
    x = np.asarray(x0, dtype=float)
    k = x.size
    lo = np.full(k, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(k, np.inf) if upper is None else np.asarray(upper, dtype=float)
    x = np.minimum(np.maximum(x, lo), hi)

    def jacobian_at(jacobian):
        jac = jacobian()
        if not np.isfinite(jac).all():
            raise NumericalFailure("Jacobian is not finite")
        return jac

    r, jacobian = evaluate(x)
    if not np.isfinite(r).all():
        raise NumericalFailure("residual is not finite at the starting point")
    sse = float(r @ r)
    lam = LAMBDA_INIT
    message = "max_iter reached"
    converged = False
    n_iter = 0

    for n_iter in range(1, MAX_ITER + 1):
        jac = jacobian_at(jacobian)
        grad = jac.T @ r
        if float(np.abs(grad).max()) < GTOL:
            converged = True
            message = "gradient norm below gtol"
            break
        hess = jac.T @ jac
        diag = np.maximum(hess.diagonal(), 1e-300)
        neg_grad = -grad

        accepted = False
        while lam <= MAX_LAMBDA:
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), neg_grad)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_GROW
                continue
            x_trial = np.minimum(np.maximum(x + step, lo), hi)
            r_trial, jacobian_trial = evaluate(x_trial)
            sse_trial = float(r_trial @ r_trial)
            if math.isfinite(sse_trial) and sse_trial < sse:
                rel_move = float((np.abs(x_trial - x) / (np.abs(x) + 1e-300)).max())
                x, r, sse, jacobian, jac = x_trial, r_trial, sse_trial, jacobian_trial, None
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

    if jac is None:  # the last iteration moved x
        jac = jacobian_at(jacobian)
    return LMResult(x=x, sse=sse, converged=converged, n_iter=n_iter, jacobian=jac, message=message)


def covariance_from_jacobian(jac: np.ndarray, sse: float, n_points: int) -> np.ndarray:
    """Parameter covariance s^2 (J^T J)^+ with s^2 = SSE / (N - k)."""
    k = jac.shape[1]
    dof = max(n_points - k, 1)
    s2 = sse / dof
    return s2 * np.linalg.pinv(jac.T @ jac)
